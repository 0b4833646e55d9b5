package sim

import (
	"context"

	"mobilecache/internal/config"
	"mobilecache/internal/energy"
	"mobilecache/internal/sample"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

// This file holds the set-sampling half of a run: the machine comes
// from BuildSampled, the replay stream is filtered to the selected
// sets, and the finished report is scaled from the 1/Factor raw
// counters back to full-cache estimates. The invariant audit runs on
// the RAW counters — conservation must hold for what was actually
// simulated — and because every integer counter scales by the same
// factor, the scaled report satisfies the same exact identities (the
// per-class energy ratio correction only touches float buckets, whose
// audit checks are sign and sum consistency).
//
// With a disabled spec (factor <= 1) BuildSampled builds the unsampled
// machine, and Run and RunSampledTrace replay the source untouched and
// return the exact report, SampleFactor zero.

// scaleBreakdown scales one energy account by the sampling factor.
func scaleBreakdown(b *energy.Breakdown, f float64) {
	b.ReadJ *= f
	b.WriteJ *= f
	b.LeakageJ *= f
	b.RefreshJ *= f
}

// scaleReport extrapolates a sampled run's raw counters to full-cache
// estimates. Every extensive quantity — instructions, cycles, event
// counts, energy in every bucket and domain — scales by the factor;
// intensive and structural quantities (capacities, the partition
// trajectory, which is reported in compressed sampled time) do not.
//
// The per-reference quantities are the exception to the nominal
// 1/factor rule: the access count and the L1 dynamic energy buckets
// are charged once per reference, and per-reference popularity of the
// selected groups can be far from 1/factor (a few hot data blocks
// dominate L1 traffic). The filter measures the true seen/kept ratio
// per op class, and its Stats carry it here so the access count
// scales by the total ratio, L1I reads by the ifetch ratio and L1D
// reads/writes by the load/store ratios. Everything set-indexed (L2,
// DRAM) or time-based (leakage, refresh) stays on the nominal factor,
// which the gap redistribution in the filter makes unbiased.
func scaleReport(rep *RunReport, factor int, st sample.Stats) {
	if factor <= 1 {
		return
	}
	f := uint64(factor)
	rep.CPU.Instructions *= f
	rep.CPU.Cycles *= f
	// The access count is per-reference, not per-set: scale it by the
	// measured total seen/kept ratio, which for a cold run reconstructs
	// the full record count exactly (the filter saw every raw record).
	// Nominal 1/factor would overstate it whenever hot blocks cluster
	// in the selected groups — by >2x on the zipfian app profiles.
	rep.CPU.Accesses = uint64(float64(rep.CPU.Accesses)*st.TotalRatio(factor) + 0.5)
	rep.CPU.StallCycles *= f
	rep.CPU.IdleCycles *= f
	for d := range rep.CPU.CyclesByDomain {
		rep.CPU.CyclesByDomain[d] *= f
	}
	for d := 0; d < trace.NumDomains; d++ {
		rep.L2.Accesses[d] *= f
		rep.L2.Hits[d] *= f
		rep.L2.Misses[d] *= f
	}
	rep.L2.Evictions *= f
	rep.L2.InterferenceEvictions *= f
	rep.L2.Writebacks *= f
	rep.L2.ExpiryInvalidations *= f
	rep.L2.Refreshes *= f
	rep.L2.EagerWritebacks *= f
	rep.L2.CleanExpiries *= f
	rep.L2.DirtyExpiries *= f
	rep.L2.FaultExpiries *= f
	rep.FlushWritebacks *= f
	rep.DRAMReads *= f
	rep.DRAMWrites *= f
	ff := float64(factor)
	scaleBreakdown(&rep.Energy.L1I, ff)
	scaleBreakdown(&rep.Energy.L1D, ff)
	scaleBreakdown(&rep.Energy.L2, ff)
	rep.Energy.DRAMJ *= ff
	// Re-scale the reference-proportional buckets from the nominal
	// factor to the measured per-class ratios.
	rep.Energy.L1I.ReadJ *= st.Ratio(trace.Ifetch, factor) / ff
	rep.Energy.L1D.ReadJ *= st.Ratio(trace.Load, factor) / ff
	rep.Energy.L1D.WriteJ *= st.Ratio(trace.Store, factor) / ff
}

// finishSampled stamps a sampled machine's factor on the report,
// audits the raw counters, then scales them using st, the filter's
// seen/kept statistics. The audit-before-scale order is deliberate:
// conservation is checked on what was simulated, and the factor rides
// along in the report so the auditor can apply sampled-mode context.
// An unsampled machine's report is audited and returned unscaled.
func finishSampled(m *Machine, st sample.Stats, rep RunReport) (RunReport, error) {
	if m.Sample != nil {
		rep.SampleFactor = m.Sample.Factor()
	}
	rep, err := auditExit(rep)
	if err != nil {
		return rep, err
	}
	scaleReport(&rep, rep.SampleFactor, st)
	return rep, nil
}

// RunSampledTrace replays a prepared source on a (possibly sampled)
// machine and returns the scaled, audited report. maxAccesses bounds
// the raw records consumed — the same trace extent a full run of the
// same bound covers — not the post-filter count. It serves the streams
// no (app, seed) names, which the arena cannot share: trace files
// (mcsim -trace) and multi-app sessions (E9, the multiapp and
// dynamicpartition examples). A generated app trace replays through
// Run, or Machine.Run on a machine built by hand.
func RunSampledTrace(m *Machine, name string, src trace.Source, maxAccesses uint64) (RunReport, error) {
	if m.Sample == nil {
		return auditExit(RunTrace(m, name, src, maxAccesses))
	}
	if maxAccesses > 0 {
		src = trace.NewLimitSource(src, int(maxAccesses))
	}
	fs := sample.NewSource(m.Sample, src)
	rep := RunTrace(m, name, fs, 0)
	return finishSampled(m, fs.Stats(), rep)
}

// RunWorkloadSampled is Run with neither an arena nor a warmup: the
// generator's stream is filtered live on a sampled machine. The
// repository benchmark checks its cells against it as the arena-free
// reference.
func RunWorkloadSampled(cfg config.Machine, prof workload.Profile, seed uint64, accesses int, spec sample.Spec) (RunReport, error) {
	return Run(context.TODO(), nil, cfg, prof, seed, 0, accesses, spec)
}
