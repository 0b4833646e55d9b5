package experiments

import (
	"fmt"

	"mobilecache/internal/config"
	"mobilecache/internal/report"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

func init() {
	register("E9", "Dynamic partition adaptation over time",
		"the controller tracks per-domain demand, reallocating and gating ways as the workload's phases change",
		runE9)
	register("E12", "Dynamic controller ablation: epoch length and slack",
		"design-choice ablation — repartition interval and miss-rate slack trade energy against performance",
		runE12)
}

// runE9 drives the dynamic design with a session that moves across
// three apps and reports the way-allocation trajectory.
func runE9(opts Options) (Result, error) {
	var res Result
	cfg, err := sim.MachineByName("dp")
	if err != nil {
		return res, err
	}
	m, err := sim.Build(cfg)
	if err != nil {
		return res, err
	}

	// A usage session: up to three apps back to back.
	apps := opts.Apps
	if len(apps) > 3 {
		apps = apps[:3]
	}
	var gens []trace.Source
	names := ""
	for i, app := range apps {
		g, err := workload.NewGenerator(app, appSeed(opts.Seed, i), workload.PhaseLen(app, opts.Accesses))
		if err != nil {
			return res, err
		}
		gens = append(gens, g)
		if i > 0 {
			names += " -> "
		}
		names += app.Name
	}
	src := workload.NewPhasedSource(opts.Accesses, gens...)
	rep, err := sim.RunSampledTrace(m, names, src, 0)
	if err != nil {
		return res, err
	}

	hist := rep.History
	tb := report.NewTable(fmt.Sprintf("E9: partition trajectory over session %q", names),
		"epoch", "at access", "user ways", "kernel ways", "gated ways", "est missrate")
	// Sample up to 24 rows evenly so long runs stay readable.
	step := max(len(hist)/24, 1)
	for i := 0; i < len(hist); i += step {
		d := hist[i]
		tb.AddRow(fmt.Sprint(d.Epoch), fmt.Sprint(d.AtAccess),
			fmt.Sprint(d.UserWays), fmt.Sprint(d.KernelWays), fmt.Sprint(d.GatedWays),
			report.Pct(d.EstimatedMissRate))
	}
	res.Tables = append(res.Tables, tb)

	if len(hist) >= 2 {
		xs := make([]float64, len(hist))
		series := map[string][]float64{"user ways": {}, "kernel ways": {}, "gated ways": {}}
		for i, d := range hist {
			xs[i] = float64(d.AtAccess)
			series["user ways"] = append(series["user ways"], float64(d.UserWays))
			series["kernel ways"] = append(series["kernel ways"], float64(d.KernelWays))
			series["gated ways"] = append(series["gated ways"], float64(d.GatedWays))
		}
		if svg, err := report.SVGStepLines(
			"Dynamic partition allocation over the session", "ways",
			xs, series, []string{"user ways", "kernel ways", "gated ways"}); err == nil {
			res.addFigure("e9_adaptation.svg", svg)
		}
	}

	minPow, maxPow := 16, 0
	distinct := map[[2]int]bool{}
	gatedEpochs := 0
	for _, d := range hist {
		p := d.UserWays + d.KernelWays
		if p < minPow {
			minPow = p
		}
		if p > maxPow {
			maxPow = p
		}
		distinct[[2]int{d.UserWays, d.KernelWays}] = true
		if d.GatedWays > 0 {
			gatedEpochs++
		}
	}
	res.addValue("epochs", float64(len(hist)))
	res.addValue("distinct_allocations", float64(len(distinct)))
	res.addValue("min_powered_ways", float64(minPow))
	res.addValue("max_powered_ways", float64(maxPow))
	res.addValue("gated_epoch_fraction", float64(gatedEpochs)/float64(max(len(hist), 1)))
	res.addValue("flush_writebacks", float64(rep.FlushWritebacks))
	res.addNote("across %d epochs the controller used %d distinct allocations, powering between %d and %d of 16 ways",
		len(hist), len(distinct), minPow, maxPow)
	return res, nil
}

// runE12 sweeps the controller's epoch length and slack on a
// representative app.
func runE12(opts Options) (Result, error) {
	var res Result
	app := opts.Apps[0]
	baseCfg, err := sim.MachineByName("baseline-sram")
	if err != nil {
		return res, err
	}
	base, err := runWorkload(opts, baseCfg, app, appSeed(opts.Seed, 0))
	if err != nil {
		return res, err
	}

	tb := report.NewTable(fmt.Sprintf("E12: dynamic controller ablation on %s (vs baseline-sram)", app.Name),
		"epoch accesses", "slack", "norm energy", "norm IPC", "avg powered ways", "flush writebacks")
	epochs := []uint64{10_000, 50_000, 200_000}
	slacks := []float64{0.001, 0.005, 0.02}
	bestEnergy, worstEnergy := 10.0, 0.0
	for _, ep := range epochs {
		for _, sl := range slacks {
			cfg, err := sim.MachineByName("dp")
			if err != nil {
				return res, err
			}
			cfg.Dynamic = &config.Dynamic{EpochAccesses: ep, Slack: sl}
			rep, err := runWorkload(opts, cfg, app, appSeed(opts.Seed, 0))
			if err != nil {
				return res, err
			}
			normE := rep.L2EnergyJ() / base.L2EnergyJ()
			normI := rep.IPC() / base.IPC()
			avgWays := 0.0
			for _, d := range rep.History {
				avgWays += float64(d.UserWays + d.KernelWays)
			}
			if len(rep.History) > 0 {
				avgWays /= float64(len(rep.History))
			}
			tb.AddRow(fmt.Sprint(ep), fmt.Sprintf("%.3f", sl),
				fmt.Sprintf("%.3f", normE), fmt.Sprintf("%.4f", normI),
				fmt.Sprintf("%.1f", avgWays), fmt.Sprint(rep.FlushWritebacks))
			res.addValue(fmt.Sprintf("norm_energy_ep%d_sl%g", ep, sl), normE)
			res.addValue(fmt.Sprintf("norm_ipc_ep%d_sl%g", ep, sl), normI)
			if normE < bestEnergy {
				bestEnergy = normE
			}
			if normE > worstEnergy {
				worstEnergy = normE
			}
		}
	}
	res.Tables = append(res.Tables, tb)
	res.addValue("best_norm_energy", bestEnergy)
	res.addValue("worst_norm_energy", worstEnergy)
	res.addNote("controller knobs move normalized L2 energy between %.3f and %.3f; larger slack gates more ways at a small IPC cost",
		bestEnergy, worstEnergy)
	return res, nil
}
