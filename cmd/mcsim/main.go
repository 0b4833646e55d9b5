// mcsim runs one workload through one machine configuration and prints
// timing, cache and energy statistics. Generated-app runs go through
// the shared execution pipeline (internal/engine), so mcsim uses the
// same trace arena, run memo and invariant audit as mcbench and
// mcsweep; trace-file replays drive the simulator directly and are
// audited the same way.
//
// Usage:
//
//	mcsim [-machine name | -config file.json] [-app name | -trace file]
//	      [-accesses n] [-seed s] [-audit off|warn|strict] [-sample spec]
//	      [-dump-config]
//
// Examples:
//
//	mcsim -machine sp-mr -app browser -accesses 400000
//	mcsim -config mymachine.json -trace captured.mctr
//	mcsim -machine dp-sr -app music -audit strict
//	mcsim -machine sp -app browser -sample 1/8   # set-sampled estimate
//	mcsim -machine dp -dump-config   # print the JSON for editing
//
// -sample runs the simulation set-sampled (internal/sample): "1/8"
// simulates one in eight cache-set groups and scales the report back
// to a full-cache estimate (the report then carries a "sampling" row).
// It applies to generated apps and trace-file replays alike; error
// bounds are documented in EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mobilecache/internal/config"
	"mobilecache/internal/engine"
	"mobilecache/internal/report"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mcsim", flag.ContinueOnError)
	machine := fs.String("machine", "baseline-sram", "standard machine name ("+strings.Join(sim.StandardMachineNames(), ", ")+")")
	cfgPath := fs.String("config", "", "machine config JSON file (overrides -machine)")
	app := fs.String("app", "browser", "app profile ("+strings.Join(workload.ProfileNames(), ", ")+")")
	tracePath := fs.String("trace", "", "binary trace file to replay (overrides -app)")
	accesses := fs.Int("accesses", 400_000, "accesses to simulate (0 = whole trace)")
	seed := fs.Uint64("seed", 1, "workload generator seed")
	audit := fs.String("audit", "warn", "invariant audit mode: off, warn or strict")
	sampleArg := fs.String("sample", "", `set-sampling spec, e.g. "1/8" or "hash:1/8" (default: exact simulation)`)
	dump := fs.Bool("dump-config", false, "print the machine config as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail fast: a negative -accesses would otherwise wrap to a huge
	// uint64 replay bound, and a bad -audit mode should be caught before
	// any config or trace file is touched.
	if *accesses < 0 {
		return fmt.Errorf("-accesses %d is negative; use 0 to replay a whole trace", *accesses)
	}
	if err := engine.CheckAudit(*audit); err != nil {
		return fmt.Errorf("-audit: %w", err)
	}
	var spec sample.Spec
	if *sampleArg != "" {
		var err error
		spec, err = sample.Parse(*sampleArg)
		if err != nil {
			return fmt.Errorf("-sample: %w", err)
		}
	}

	cfg, err := sim.MachineByName(*machine)
	if err != nil {
		return err
	}
	if *cfgPath != "" {
		cfg, err = config.LoadFile(*cfgPath)
		if err != nil {
			return err
		}
	}
	if *dump {
		return cfg.Save(out)
	}

	restoreAudit, err := engine.ApplyAudit(*audit)
	if err != nil {
		return fmt.Errorf("-audit: %w", err)
	}
	defer restoreAudit()

	var rep sim.RunReport
	if *tracePath != "" {
		rep, err = replayTraceFile(cfg, *tracePath, uint64(*accesses), spec)
	} else {
		if *accesses <= 0 {
			return fmt.Errorf("-accesses must be positive with a generated workload")
		}
		var prof workload.Profile
		prof, err = workload.ProfileByName(*app)
		if err != nil {
			return err
		}
		eng := engine.New(engine.Config{})
		cell := engine.Cell{Machine: cfg.Name, Config: cfg, App: prof.Name, Profile: prof, Seed: *seed}
		rep, err = eng.RunOneSampled(context.Background(), cell, *accesses, 0, spec)
		// One-shot runs still report the shared caching layer: the line is
		// mostly misses here, but it keeps the four front ends' summary
		// format identical for scripts that scrape it.
		if err == nil {
			fmt.Fprintf(os.Stderr, "mcsim: %s\n",
				engine.CacheSummary(eng.MemoStats(), eng.Store().Stats()))
		}
	}
	if err != nil {
		return err
	}
	return printReport(out, rep)
}

// replayTraceFile drives a captured trace straight through the
// simulator (a file replay has no profile identity for the shared
// arena) and applies the process audit mode to the result. An enabled
// sampling spec replays the trace through the sampled machine and
// scales the report, exactly as the engine does for generated apps.
// A trace the reader cannot decode to the end of the replay (a bad
// header, a truncated or invalid record) fails the run: a report over
// the records before the fault would pass for a whole-trace result.
func replayTraceFile(cfg config.Machine, path string, maxAccesses uint64, spec sample.Spec) (sim.RunReport, error) {
	m, err := sim.BuildSampled(cfg, spec)
	if err != nil {
		return sim.RunReport{}, err
	}
	r, closer, err := trace.OpenFile(path) // handles .gz
	if err != nil {
		return sim.RunReport{}, err
	}
	defer closer.Close()
	// RunSampledTrace audits internally (raw counters before scaling);
	// auditing its scaled report again would check different numbers
	// than the run produced.
	rep, err := sim.RunSampledTrace(m, path, r, maxAccesses)
	if err != nil {
		return sim.RunReport{}, err
	}
	if err := r.Err(); err != nil {
		return sim.RunReport{}, fmt.Errorf("trace %s: %w", path, err)
	}
	return rep, nil
}

func printReport(out io.Writer, rep sim.RunReport) error {
	tb := report.NewTable(fmt.Sprintf("mcsim: %s on %s", rep.Workload, rep.Machine), "metric", "value")
	if rep.SampleFactor > 1 {
		tb.AddRow("sampling", fmt.Sprintf("1/%d of set groups (scaled estimate)", rep.SampleFactor))
	}
	tb.AddRow("accesses", fmt.Sprint(rep.CPU.Accesses))
	tb.AddRow("instructions", fmt.Sprint(rep.CPU.Instructions))
	tb.AddRow("cycles", fmt.Sprint(rep.CPU.Cycles))
	tb.AddRow("IPC", fmt.Sprintf("%.4f", rep.IPC()))
	tb.AddRow("memory stall fraction", report.Pct(rep.CPU.StallFraction()))
	tb.AddRow("L2 accesses", fmt.Sprint(rep.L2.TotalAccesses()))
	tb.AddRow("L2 miss rate", report.Pct(rep.L2.MissRate()))
	tb.AddRow("L2 kernel access share", report.Pct(rep.L2.KernelShare()))
	tb.AddRow("L2 interference evictions", fmt.Sprint(rep.L2.InterferenceEvictions))
	tb.AddRow("L2 expiry invalidations", fmt.Sprint(rep.L2.ExpiryInvalidations))
	tb.AddRow("L2 refreshes", fmt.Sprint(rep.L2.Refreshes))
	tb.AddRow("L2 installed / powered", report.Bytes(rep.L2InstalledBytes)+" / "+report.Bytes(rep.L2PoweredBytes))
	tb.AddRow("DRAM reads / writes", fmt.Sprintf("%d / %d", rep.DRAMReads, rep.DRAMWrites))
	bd := rep.Energy.L2
	tb.AddRow("L2 energy: read", report.Joules(bd.ReadJ))
	tb.AddRow("L2 energy: write", report.Joules(bd.WriteJ))
	tb.AddRow("L2 energy: leakage", report.Joules(bd.LeakageJ))
	tb.AddRow("L2 energy: refresh", report.Joules(bd.RefreshJ))
	tb.AddRow("L2 energy: total", report.Joules(bd.Total()))
	tb.AddRow("hierarchy energy total", report.Joules(rep.Energy.TotalJ()))
	if err := tb.Fprint(out); err != nil {
		return err
	}
	if len(rep.History) > 0 {
		_, err := fmt.Fprintf(out, "\ndynamic partition: %d epochs, final allocation u=%d k=%d gated=%d, %d flush writebacks\n",
			len(rep.History),
			rep.History[len(rep.History)-1].UserWays,
			rep.History[len(rep.History)-1].KernelWays,
			rep.History[len(rep.History)-1].GatedWays,
			rep.FlushWritebacks)
		return err
	}
	return nil
}
