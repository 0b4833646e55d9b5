// mcbench regenerates the paper's tables and figures.
//
// Usage:
//
//	mcbench                      # run every experiment at full scale
//	mcbench -experiment E7       # one experiment
//	mcbench -accesses 100000 -apps browser,email   # smaller/narrower
//	mcbench -list                # list experiment IDs and titles
//	mcbench -csv dir/            # additionally dump each table as CSV
//
// Experiment IDs E1..E12 are the reconstructed figures, E13..E21
// extensions and T1..T3 the tables; see DESIGN.md for the
// per-experiment index.
//
// Every experiment in a run is executed through one shared pipeline
// engine (internal/engine): its trace arena, bounded by
// -trace-cache-mb, keeps each trace's front-stage output (the L1s'
// L2-bound stream), so experiments that revisit an (app, seed) with
// the same front stage replay only their back stage, and its
// content-hash run memo lets
// experiments that share (machine, app, seed) cells simulate them
// once. -cpuprofile and -memprofile write pprof profiles of the run.
// Every simulation's report is audited against the conservation laws
// of internal/invariant, and a violation fails the run.
//
// -sample runs every experiment set-sampled (e.g. -sample 1/8
// simulates one in eight cache-set groups and scales the reports back
// to full-cache estimates) — a near-linear speedup with bounded error;
// see EXPERIMENTS.md for the measured bounds. -sample-validate runs
// the sampled-vs-exact comparison grid for the chosen spec instead of
// the experiments, prints the per-machine relative errors and the
// wall-clock speedup, and exits non-zero if any machine breaches the
// 2% tolerance.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mobilecache/internal/engine"
	"mobilecache/internal/experiments"
	"mobilecache/internal/profiling"
	"mobilecache/internal/sample"
	"mobilecache/internal/workload"
)

// validateTolerance is the relative-error bound -sample-validate
// enforces per machine on both headline metrics (L2 miss rate, total
// energy) — the bound EXPERIMENTS.md documents for the shipped specs.
const validateTolerance = 0.02

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	expID := fs.String("experiment", "", "experiment ID (default: all)")
	accesses := fs.Int("accesses", experiments.DefaultOptions().Accesses, "accesses per app")
	seed := fs.Uint64("seed", 1, "workload seed")
	apps := fs.String("apps", "", "comma-separated app subset (default: all ten)")
	list := fs.Bool("list", false, "list experiments and exit")
	csvDir := fs.String("csv", "", "directory to dump tables as CSV")
	mdDir := fs.String("md", "", "directory to dump tables as Markdown")
	svgDir := fs.String("svg", "", "directory to write SVG figures")
	traceCacheMB := fs.Int("trace-cache-mb", 256, "trace arena LRU budget in MB (0 = unlimited)")
	sampleArg := fs.String("sample", "", `set-sampling spec, e.g. "1/8" or "hash:1/8" (default: exact simulation)`)
	sampleValidate := fs.Bool("sample-validate", false, "run the sampled-vs-exact validation grid instead of the experiments")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile here")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail fast on bad settings and unwritable destinations: a full
	// benchmark run is hours of simulation, and discovering a typoed
	// output directory after the first experiment finishes wastes all
	// of it.
	if *accesses <= 0 {
		return fmt.Errorf("-accesses %d is not a runnable access count (need >= 1)", *accesses)
	}
	if *traceCacheMB < 0 {
		return fmt.Errorf("-trace-cache-mb %d is negative; use 0 for an unlimited arena", *traceCacheMB)
	}
	if *expID != "" && !*list {
		known := false
		for _, id := range experiments.IDs() {
			if id == *expID {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("-experiment %q is not a known ID (see -list)", *expID)
		}
	}
	for _, d := range []struct{ flag, dir string }{
		{"-csv", *csvDir}, {"-md", *mdDir}, {"-svg", *svgDir},
	} {
		if err := checkWritableDir(d.flag, d.dir); err != nil {
			return err
		}
	}
	var sampleSpec sample.Spec
	if *sampleArg != "" {
		var err error
		sampleSpec, err = sample.Parse(*sampleArg)
		if err != nil {
			return fmt.Errorf("-sample: %w", err)
		}
	}
	if *sampleValidate && !sampleSpec.Enabled() {
		// Validating the default spec without -sample keeps the common
		// invocation short: mcbench -sample-validate.
		sampleSpec = sample.Spec{Factor: 8}
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(out, "%-4s %s\n", id, experiments.Title(id))
		}
		return nil
	}

	stopProfile, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfile(); perr != nil {
			fmt.Fprintln(os.Stderr, "mcbench: profile:", perr)
		}
	}()

	opts := experiments.Options{
		Accesses: *accesses,
		Seed:     *seed,
		Apps:     workload.Profiles(),
		Engine:   engine.New(engine.Config{TraceBudgetBytes: engine.TraceBudgetMB(*traceCacheMB)}),
		Sample:   sampleSpec,
	}
	if *apps != "" {
		opts.Apps = nil
		for _, name := range strings.Split(*apps, ",") {
			p, err := workload.ProfileByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opts.Apps = append(opts.Apps, p)
		}
	}

	if *sampleValidate {
		return runSampleValidate(opts, sampleSpec, out)
	}

	ids := experiments.IDs()
	if *expID != "" {
		ids = []string{*expID}
	}
	// The whole run shares one engine, so the end-of-run summary on
	// stderr reports how its run memo and trace arena performed across
	// every experiment (mcsweep prints the same line per sweep).
	defer func() {
		fmt.Fprintf(os.Stderr, "mcbench: %s\n",
			engine.CacheSummary(opts.Engine.MemoStats(), opts.Engine.Store().Stats()))
	}()
	for _, id := range ids {
		res, err := experiments.Run(id, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "=== %s: %s ===\n", res.ID, res.Title)
		fmt.Fprintf(out, "paper: %s\n\n", res.Paper)
		for ti, tb := range res.Tables {
			if err := tb.Fprint(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
			if *csvDir != "" {
				path := filepath.Join(*csvDir, fmt.Sprintf("%s_%d.csv", res.ID, ti))
				if err := dumpTable(path, tb.WriteCSV); err != nil {
					return err
				}
			}
			if *mdDir != "" {
				path := filepath.Join(*mdDir, fmt.Sprintf("%s_%d.md", res.ID, ti))
				if err := dumpTable(path, tb.WriteMarkdown); err != nil {
					return err
				}
			}
		}
		if *svgDir != "" {
			for name, svg := range res.Figures {
				path := filepath.Join(*svgDir, name)
				if err := dumpTable(path, func(w io.Writer) error {
					_, err := io.WriteString(w, svg)
					return err
				}); err != nil {
					return err
				}
				fmt.Fprintf(out, "figure: %s\n", path)
			}
		}
		for _, n := range res.Notes {
			fmt.Fprintf(out, "finding: %s\n", n)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runSampleValidate executes the sampled-vs-exact comparison grid
// (every standard machine × the selected apps × two seed bases) and
// renders the per-machine error table, the wall-clock speedup and the
// verdict. A tolerance breach is the returned error, so the process
// exits non-zero — the same contract CI relies on.
func runSampleValidate(opts experiments.Options, spec sample.Spec, out io.Writer) error {
	opts.Sample = sample.Spec{} // the helper runs both arms itself
	v, err := experiments.ValidateSample(opts, spec, validateTolerance)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sampling validation: spec %s, %d apps x 2 seed bases, %d accesses/app\n\n",
		v.Spec, len(opts.Apps), opts.Accesses)
	fmt.Fprintf(out, "%-16s %12s %12s %8s %13s %13s %8s\n",
		"machine", "mr(full)", "mr(sampled)", "err", "E(full) J", "E(sampled) J", "err")
	for _, m := range v.Machines {
		fmt.Fprintf(out, "%-16s %12.4f %12.4f %7.2f%% %13.4e %13.4e %7.2f%%\n",
			m.Machine, m.FullMissRate, m.SampledMissRate, 100*m.MissRateRelErr,
			m.FullEnergyJ, m.SampledEnergyJ, 100*m.EnergyRelErr)
	}
	fmt.Fprintf(out, "\nwall clock: full %v, sampled %v (%.1fx speedup)\n",
		v.FullWall.Round(time.Millisecond), v.SampledWall.Round(time.Millisecond), v.Speedup())
	if err := v.Err(); err != nil {
		fmt.Fprintf(out, "FAIL: %v\n", err)
		return err
	}
	fmt.Fprintf(out, "PASS: every machine within %.1f%% on both metrics\n", 100*validateTolerance)
	return nil
}

// checkWritableDir proves an output directory can actually receive
// files before any simulation starts: create it if needed, then create
// and remove a probe file.
func checkWritableDir(flagName, dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%s: creating %s: %w", flagName, dir, err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("%s: directory %s is not writable: %w", flagName, dir, err)
	}
	name := probe.Name()
	probe.Close()
	return os.Remove(name)
}

// dumpTable writes one table rendering to path, creating directories.
func dumpTable(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
