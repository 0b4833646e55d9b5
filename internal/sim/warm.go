package sim

import (
	"context"

	"mobilecache/internal/core"
	"mobilecache/internal/energy"
	"mobilecache/internal/mem"
	"mobilecache/internal/trace"
)

// This file adds warm measurement: run a warmup prefix to populate the
// caches (and let the dynamic controller converge), then measure only
// the remainder. All simulator counters are cumulative, so the
// measured report is the difference of two snapshots.
//
// The standard experiments measure cold-start runs on purpose —
// interactive mobile episodes are short and include their cold misses —
// but warm measurement is the right tool for steady-state studies.

func subBreakdown(a, b energy.Breakdown) energy.Breakdown {
	return energy.Breakdown{
		ReadJ:    a.ReadJ - b.ReadJ,
		WriteJ:   a.WriteJ - b.WriteJ,
		LeakageJ: a.LeakageJ - b.LeakageJ,
		RefreshJ: a.RefreshJ - b.RefreshJ,
	}
}

func subEnergy(a, b mem.EnergyReport) mem.EnergyReport {
	return mem.EnergyReport{
		L1I:   subBreakdown(a.L1I, b.L1I),
		L1D:   subBreakdown(a.L1D, b.L1D),
		L2:    subBreakdown(a.L2, b.L2),
		DRAMJ: a.DRAMJ - b.DRAMJ,
	}
}

func subL2Stats(a, b core.L2Stats) core.L2Stats {
	var out core.L2Stats
	for d := 0; d < trace.NumDomains; d++ {
		out.Accesses[d] = a.Accesses[d] - b.Accesses[d]
		out.Hits[d] = a.Hits[d] - b.Hits[d]
		out.Misses[d] = a.Misses[d] - b.Misses[d]
	}
	out.Evictions = a.Evictions - b.Evictions
	out.InterferenceEvictions = a.InterferenceEvictions - b.InterferenceEvictions
	out.Writebacks = a.Writebacks - b.Writebacks
	out.ExpiryInvalidations = a.ExpiryInvalidations - b.ExpiryInvalidations
	out.Refreshes = a.Refreshes - b.Refreshes
	out.EagerWritebacks = a.EagerWritebacks - b.EagerWritebacks
	out.CleanExpiries = a.CleanExpiries - b.CleanExpiries
	out.DirtyExpiries = a.DirtyExpiries - b.DirtyExpiries
	// FaultExpiries was historically dropped from warm diffs, silently
	// zeroing fault-loss accounting in warm measurements; subtract it
	// like every other counter.
	out.FaultExpiries = a.FaultExpiries - b.FaultExpiries
	return out
}

// runWarm replays warmupAccesses records of src to warm the machine,
// then measures the rest of the source. The returned report covers
// only the measured portion; its History (for dynamic designs) is
// trimmed to decisions taken during measurement. Like runTrace, it
// stops at the next frame when ctx ends and returns ctx's error.
func runWarm(ctx context.Context, m *Machine, name string, src trace.Source, warmupAccesses uint64) (RunReport, error) {
	if warmupAccesses > 0 {
		// Run bounds itself by the access count; skipping the LimitSource
		// wrapper keeps packed-cursor sources on their fast path.
		if _, err := m.CPU.Run(ctx, src, warmupAccesses); err != nil {
			return RunReport{}, err
		}
	}
	m.Hier.Advance(m.CPU.Now())

	before := RunReport{
		L2:     m.L2.Stats(),
		Energy: m.Hier.Energy(),
	}
	beforeReads, beforeWrites := m.DRAM.Reads(), m.DRAM.Writes()
	var beforeDecisions int
	if m.Dynamic != nil {
		beforeDecisions = len(m.Dynamic.History())
	}
	var beforeFlush uint64
	if m.Dynamic != nil {
		beforeFlush = m.Dynamic.FlushWritebacks()
	}

	measured, err := m.CPU.Run(ctx, src, 0)
	if err != nil {
		return RunReport{}, err
	}
	m.Hier.Advance(m.CPU.Now())

	rep := RunReport{
		Machine:          m.Config.Name,
		Workload:         name,
		CPU:              measured,
		L2:               subL2Stats(m.L2.Stats(), before.L2),
		Energy:           subEnergy(m.Hier.Energy(), before.Energy),
		L2InstalledBytes: m.L2.SizeBytes(),
		L2PoweredBytes:   m.L2.PoweredBytes(),
		DRAMReads:        m.DRAM.Reads() - beforeReads,
		DRAMWrites:       m.DRAM.Writes() - beforeWrites,
	}
	if m.Dynamic != nil {
		hist := m.Dynamic.History()
		rep.History = hist[beforeDecisions:]
		rep.FlushWritebacks = m.Dynamic.FlushWritebacks() - beforeFlush
	}
	return rep, nil
}
