package experiments

import (
	"fmt"

	"mobilecache/internal/cache"
	"mobilecache/internal/core"
	"mobilecache/internal/cpu"
	"mobilecache/internal/energy"
	"mobilecache/internal/mem"
	"mobilecache/internal/report"
	"mobilecache/internal/sim"
	"mobilecache/internal/sttram"
	"mobilecache/internal/trace"
)

func init() {
	register("E10", "Retention-time sensitivity of the kernel segment",
		"shorter retention cheapens writes but adds refresh/expiry cost; an intermediate retention minimizes kernel-segment energy",
		runE10)
	register("E11", "Refresh policy ablation for the short-retention segment",
		"how the short-retention array stays correct — full refresh vs dirty-only vs eager writeback — trades refresh energy against extra misses",
		runE11)
}

// buildStaticWithKernel builds the standard SP machine geometry but
// with the kernel segment's technology parameters overridden.
func buildStaticWithKernel(params *energy.Params, refresh sttram.RefreshPolicy) (*sim.Machine, error) {
	dram := mem.NewDRAM(mem.DefaultDRAMConfig())
	wb := func(addr uint64) { dram.Write(addr) }
	user := core.SegmentConfig{
		Name: "L2-user", SizeBytes: 512 * 1024, Ways: 16, BlockBytes: 64,
		Policy: cache.LRU, Tech: energy.STTMedium, Refresh: sttram.DirtyOnly,
	}
	kernel := core.SegmentConfig{
		Name: "L2-kernel", SizeBytes: 256 * 1024, Ways: 16, BlockBytes: 64,
		Policy: cache.LRU, Tech: energy.STTShort, Refresh: refresh,
		ParamsOverride: params,
	}
	sp, err := core.NewStaticPartition("sp-sweep", user, kernel, wb)
	if err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(mem.DefaultL1I(), mem.DefaultL1D(), sp, dram)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(cpu.DefaultConfig(), hier)
	if err != nil {
		return nil, err
	}
	return &sim.Machine{CPU: c, Hier: hier, L2: sp, DRAM: dram, Static: sp}, nil
}

// runE10 sweeps the kernel segment's retention target across six
// decades and reports where its energy bottoms out.
func runE10(opts Options) (Result, error) {
	var res Result
	app := opts.Apps[0]
	retentions := []float64{2.65e-6, 26.5e-6, 265e-6, 2.65e-3, 26.5e-3, 3.24}

	tb := report.NewTable(fmt.Sprintf("E10: kernel-segment energy vs retention target (app %s)", app.Name),
		"retention", "write (pJ)", "kernel energy", "refresh energy", "refreshes", "expiries", "IPC")
	bestRet, bestE := 0.0, -1.0
	for _, ret := range retentions {
		params := energy.ParamsForRetention(ret)
		m, err := buildStaticWithKernel(&params, sttram.DirtyOnly)
		if err != nil {
			return res, err
		}
		rep, err := runOnMachine(opts, m, app, appSeed(opts.Seed, 0))
		if err != nil {
			return res, err
		}
		kb := m.Static.SegmentEnergy(trace.Kernel)
		ks := m.Static.SegmentStats(trace.Kernel)
		tb.AddRow(fmt.Sprintf("%.3gs", ret),
			fmt.Sprintf("%.0f", params.WritePJ),
			report.Joules(kb.Total()), report.Joules(kb.RefreshJ),
			fmt.Sprint(ks.Refreshes), fmt.Sprint(ks.CleanExpiries+ks.ExpiryInvalidations),
			fmt.Sprintf("%.4f", rep.IPC()))
		res.addValue(fmt.Sprintf("kernel_energy_ret%.3g", ret), kb.Total())
		if bestE < 0 || kb.Total() < bestE {
			bestE, bestRet = kb.Total(), ret
		}
	}
	res.Tables = append(res.Tables, tb)
	res.addValue("best_retention_s", bestRet)
	res.addNote("kernel-segment energy is minimized at a %.3gs retention target — short enough for cheap writes, long enough to bound refresh", bestRet)
	return res, nil
}

// runE11 fixes the short-retention kernel segment and varies only the
// refresh policy.
func runE11(opts Options) (Result, error) {
	var res Result
	app := opts.Apps[0]
	tb := report.NewTable(fmt.Sprintf("E11: refresh policy ablation, short-retention kernel segment (app %s)", app.Name),
		"policy", "kernel energy", "refresh energy", "refreshes", "eager wbs", "expiries", "kernel missrate", "dirty losses")
	for _, pol := range []sttram.RefreshPolicy{sttram.PeriodicAll, sttram.DirtyOnly, sttram.EagerWriteback} {
		m, err := buildStaticWithKernel(nil, pol)
		if err != nil {
			return res, err
		}
		if _, err := runOnMachine(opts, m, app, appSeed(opts.Seed, 0)); err != nil {
			return res, err
		}
		kb := m.Static.SegmentEnergy(trace.Kernel)
		ks := m.Static.SegmentStats(trace.Kernel)
		tb.AddRow(pol.String(),
			report.Joules(kb.Total()), report.Joules(kb.RefreshJ),
			fmt.Sprint(ks.Refreshes), fmt.Sprint(ks.EagerWritebacks),
			fmt.Sprint(ks.CleanExpiries+ks.ExpiryInvalidations),
			report.Pct(ks.DomainMissRate(trace.Kernel)),
			fmt.Sprint(ks.DirtyExpiries))
		res.addValue("kernel_energy_"+pol.String(), kb.Total())
		res.addValue("kernel_missrate_"+pol.String(), ks.DomainMissRate(trace.Kernel))
		res.addValue("dirty_expiries_"+pol.String(), float64(ks.DirtyExpiries))
	}
	res.Tables = append(res.Tables, tb)
	res.addNote("no policy loses dirty data; periodic-all pays the most refresh energy, eager-writeback converts it into extra misses")
	return res, nil
}
