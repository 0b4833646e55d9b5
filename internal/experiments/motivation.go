package experiments

import (
	"fmt"

	"mobilecache/internal/config"
	"mobilecache/internal/core"
	"mobilecache/internal/energy"
	"mobilecache/internal/report"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

func init() {
	register("E1", "Kernel share of L2 accesses per app",
		"more than 40% of L2 cache accesses are OS kernel accesses on average",
		runE1)
	register("E2", "User/kernel interference in the shared L2",
		"kernel accesses cause unnecessary replacements of user blocks and vice versa, inflating the L2 miss rate",
		runE2)
	register("E3", "Miss rate vs. segment size (static partition sizing)",
		"partitioned segments can shrink the total capacity below the baseline while keeping a similar miss rate",
		runE3)
	register("E4", "Block lifetime and write-interval distributions per segment",
		"kernel blocks live briefly and are rewritten often; user blocks live longer — motivating multi-retention STT-RAM",
		runE4)
}

// runE1 reproduces the motivation figure: the kernel fraction of L2
// accesses for each interactive app on the baseline machine.
func runE1(opts Options) (Result, error) {
	var res Result
	tb := report.NewTable("E1: kernel share of L2 accesses (baseline 1MB SRAM L2)",
		"app", "L2 accesses", "kernel share", "trace kernel share")
	sum := 0.0
	for i, app := range opts.Apps {
		rep, err := runWorkload(opts, config.Default(), app, appSeed(opts.Seed, i))
		if err != nil {
			return res, err
		}
		share := rep.L2.KernelShare()
		sum += share
		// Trace-level share for contrast (L1 filtering shifts it).
		recs, err := workload.Generate(app, appSeed(opts.Seed, i), opts.Accesses)
		if err != nil {
			return res, err
		}
		traceShare := trace.Summarize(trace.NewSliceSource(recs)).KernelShare()
		tb.AddRow(app.Name, fmt.Sprint(rep.L2.TotalAccesses()), report.Pct(share), report.Pct(traceShare))
		res.addValue("l2_kernel_share_"+app.Name, share)
	}
	avg := sum / float64(len(opts.Apps))
	tb.AddRow("average", "", report.Pct(avg), "")
	res.Tables = append(res.Tables, tb)
	res.addValue("avg_l2_kernel_share", avg)
	res.addNote("average kernel share of L2 accesses: %s (paper: >40%%)", report.Pct(avg))
	return res, nil
}

// runE2 quantifies cross-domain interference: the shared baseline vs a
// same-total-capacity static partition (512KB+512KB), so the only
// change is isolation.
func runE2(opts Options) (Result, error) {
	var res Result
	iso := config.Default()
	iso.Name = "sp-equal"
	iso.Scheme = config.SchemeStatic
	iso.Unified = nil
	iso.User = &config.Segment{Name: "L2-user", SizeKB: 512, Ways: 16, BlockBytes: 64, Policy: "lru", Tech: "sram", Refresh: "dirty-only"}
	iso.Kernel = &config.Segment{Name: "L2-kernel", SizeKB: 512, Ways: 16, BlockBytes: 64, Policy: "lru", Tech: "sram", Refresh: "dirty-only"}

	tb := report.NewTable("E2: interference in the shared L2 (1MB shared vs 512KB+512KB isolated)",
		"app", "shared missrate", "isolated missrate", "interference evictions", "per 1k accesses")
	var missDeltaSum, interfSum float64
	for i, app := range opts.Apps {
		seed := appSeed(opts.Seed, i)
		shared, err := runWorkload(opts, config.Default(), app, seed)
		if err != nil {
			return res, err
		}
		isolated, err := runWorkload(opts, iso, app, seed)
		if err != nil {
			return res, err
		}
		per1k := float64(shared.L2.InterferenceEvictions) / float64(shared.L2.TotalAccesses()) * 1000
		tb.AddRow(app.Name,
			report.Pct(shared.L2.MissRate()),
			report.Pct(isolated.L2.MissRate()),
			fmt.Sprint(shared.L2.InterferenceEvictions),
			fmt.Sprintf("%.1f", per1k))
		missDeltaSum += shared.L2.MissRate() - isolated.L2.MissRate()
		interfSum += per1k
	}
	res.Tables = append(res.Tables, tb)
	n := float64(len(opts.Apps))
	res.addValue("avg_missrate_delta", missDeltaSum/n)
	res.addValue("avg_interference_per_1k", interfSum/n)
	res.addNote("isolating the domains removes all %0.f interference evictions per 1k L2 accesses (avg) and changes the miss rate by %+.2f points",
		interfSum/n, missDeltaSum/n*100)
	return res, nil
}

// runE3 runs the sizing search on a representative app's L2-level
// stream — the baseline's, read from the engine's arena — reporting the
// per-domain miss curves and the chosen shrunk segments.
func runE3(opts Options) (Result, error) {
	var res Result
	app := opts.Apps[0]

	base := config.Default()
	stream, err := sim.L2Stream(opts.eng().Store(), base, app, appSeed(opts.Seed, 0), opts.Accesses)
	if err != nil {
		return res, err
	}
	baseline, err := base.Unified.ToCore()
	if err != nil {
		return res, err
	}
	candidates := []uint64{64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024}
	sizing, err := core.ChooseStaticSizes(stream, baseline, candidates, 0.02)
	if err != nil {
		return res, err
	}

	tb := report.NewTable(fmt.Sprintf("E3: miss rate vs segment size (app %s, %d L2 accesses)", app.Name, len(stream)),
		"segment size", "user missrate", "kernel missrate")
	for i := range sizing.UserCurve {
		tb.AddRow(report.Bytes(sizing.UserCurve[i].SizeBytes),
			report.Pct(sizing.UserCurve[i].MissRate),
			report.Pct(sizing.KernelCurve[i].MissRate))
	}
	res.Tables = append(res.Tables, tb)

	pick := report.NewTable("E3: chosen partition (tolerance 2 points of miss rate)",
		"quantity", "value")
	pick.AddRow("baseline miss rate", report.Pct(sizing.BaselineMissRate))
	pick.AddRow("chosen user segment", report.Bytes(sizing.UserSize))
	pick.AddRow("chosen kernel segment", report.Bytes(sizing.KernelSize))
	pick.AddRow("partition total", report.Bytes(sizing.TotalSize()))
	pick.AddRow("partition miss rate", report.Pct(sizing.CombinedMissRate))
	res.Tables = append(res.Tables, pick)

	res.addValue("baseline_missrate", sizing.BaselineMissRate)
	res.addValue("partition_missrate", sizing.CombinedMissRate)
	res.addValue("total_size_bytes", float64(sizing.TotalSize()))
	res.addValue("shrink_fraction", 1-float64(sizing.TotalSize())/float64(baseline.SizeBytes))
	res.addNote("the partition needs %s vs the 1MB baseline (%.0f%% smaller) at a %.2f-point miss-rate change",
		report.Bytes(sizing.TotalSize()),
		(1-float64(sizing.TotalSize())/float64(baseline.SizeBytes))*100,
		(sizing.CombinedMissRate-sizing.BaselineMissRate)*100)
	return res, nil
}

// runE4 measures per-segment block lifetimes and write intervals on the
// static partition, the behaviour gap that motivates multi-retention
// STT-RAM.
func runE4(opts Options) (Result, error) {
	var res Result
	spCfg, err := sim.MachineByName("sp")
	if err != nil {
		return res, err
	}

	shortRet := energy.DefaultParams(energy.STTShort).RetentionCycles
	msRet := energy.Cycles(2.65e-3) // the ms-class point the DP-SR design uses
	medRet := energy.DefaultParams(energy.STTMedium).RetentionCycles
	shortExp := log2ceil(shortRet)
	msExp := log2ceil(msRet)
	medExp := log2ceil(medRet)

	tb := report.NewTable("E4: block lifetime and write-interval behaviour per segment",
		"app", "segment", "mean lifetime (cyc)", "P[life<short-ret]", "P[life<ms-ret]", "P[life<med-ret]", "mean write gap (cyc)")
	var userBelowMed, kernelBelowShort, kernelBelowMs, userBelowMs float64
	var userGap, kernelGap, userLife, kernelLife float64
	for i, app := range opts.Apps {
		m, err := sim.Build(spCfg)
		if err != nil {
			return res, err
		}
		if _, err := runOnMachine(opts, m, app, appSeed(opts.Seed, i)); err != nil {
			return res, err
		}
		runCycles := float64(m.CPU.Now())
		for _, d := range []trace.Domain{trace.User, trace.Kernel} {
			cs := m.Static.SegmentCache(d).Stats()
			lt := cs.Lifetimes[d]
			wi := cs.WriteIntervals[d]
			// A segment with no evictions means every block outlived
			// the run: treat its lifetime as the whole run (a lower
			// bound) and its sub-retention CDFs per the run length.
			mean := lt.Mean()
			belowShort, belowMs, belowMed := lt.CDFBelow(shortExp), lt.CDFBelow(msExp), lt.CDFBelow(medExp)
			if lt.Total == 0 {
				mean = runCycles
				belowShort = boolToFrac(runCycles < float64(shortRet))
				belowMs = boolToFrac(runCycles < float64(msRet))
				belowMed = boolToFrac(runCycles < float64(medRet))
			}
			tb.AddRow(app.Name, d.String(),
				fmt.Sprintf("%.0f", mean),
				report.Pct(belowShort),
				report.Pct(belowMs),
				report.Pct(belowMed),
				fmt.Sprintf("%.0f", wi.Mean()))
			if d == trace.User {
				userBelowMed += belowMed
				userBelowMs += belowMs
				userGap += wi.Mean()
				userLife += mean
			} else {
				kernelBelowShort += belowShort
				kernelBelowMs += belowMs
				kernelGap += wi.Mean()
				kernelLife += mean
			}
		}
	}
	res.Tables = append(res.Tables, tb)
	n := float64(len(opts.Apps))
	res.addValue("kernel_life_below_short_ret", kernelBelowShort/n)
	res.addValue("kernel_life_below_ms_ret", kernelBelowMs/n)
	res.addValue("user_life_below_ms_ret", userBelowMs/n)
	res.addValue("user_life_below_med_ret", userBelowMed/n)
	res.addValue("kernel_mean_write_gap", kernelGap/n)
	res.addValue("user_mean_write_gap", userGap/n)
	res.addValue("kernel_mean_lifetime", kernelLife/n)
	res.addValue("user_mean_lifetime", userLife/n)
	res.addNote("kernel blocks live %.0f cycles on average vs %.0f for user blocks; %s of kernel and %s of user lifetimes fit a millisecond retention window",
		kernelLife/n, userLife/n, report.Pct(kernelBelowMs/n), report.Pct(userBelowMs/n))
	return res, nil
}

func boolToFrac(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func log2ceil(x uint64) int {
	n := 0
	for (uint64(1) << uint(n)) < x {
		n++
	}
	return n
}
