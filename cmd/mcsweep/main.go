// mcsweep runs a batch of (machine, app, seed) simulations described
// by a JSON spec and emits one CSV row per run — the bulk-experiment
// front end for custom studies. The grid itself is executed by the
// shared pipeline layer (internal/engine), which composes the bounded
// fault-containing worker pool, the shared trace arena, the crash-safe
// checkpoint journal and the invariant audit; mcsweep is spec parsing
// plus engine wiring.
//
// Usage:
//
//	mcsweep -spec sweep.json [-o results.csv]
//	mcsweep -spec sweep.json -jobs 8 -timeout 5m \
//	        -keep-going -failures-out failed.json
//	mcsweep -spec sweep.json -checkpoint sweep.ckpt           # journal cells
//	mcsweep -spec sweep.json -checkpoint sweep.ckpt -resume   # skip done cells
//	mcsweep -dump-spec          # print a starting-point spec
//
// Spec format:
//
//	{
//	  "machines": ["baseline-sram", "sp-mr", "my-machine.json"],
//	  "apps": ["browser", "music"],
//	  "seeds": [1, 2, 3],
//	  "accesses": 400000,
//	  "warmup": 0,
//	  "sample": "1/8"
//	}
//
// This is the sweep daemon's job spec (internal/jobs), decoded by the
// same strict decoder. Machine entries name standard schemes, or point
// at config JSON files when they are not a scheme name. A positive
// warmup measures only the accesses after the warmup prefix; warmup
// and sample are optional.
//
// Rows appear in spec order (machines x apps x seeds) regardless of
// -jobs, so identical specs produce byte-identical CSVs. With
// -keep-going a sweep with failures still exits non-zero, after
// writing every healthy row and the failure manifest.
//
// -checkpoint journals every completed cell's report to a crash-safe
// append-only file (internal/checkpoint), keyed by a content hash of
// the cell's full inputs (machine config, workload profile, seed,
// access counts). -resume replays the journal's valid prefix — a
// truncated or corrupt tail from a crash is detected, reported and
// discarded, never trusted — and skips every cell whose key matches,
// so a killed multi-hour sweep continues where it stopped. Because
// keys hash contents rather than spec positions, editing or reordering
// the spec only re-runs cells whose inputs actually changed.
//
// Every cell's report is audited against the simulator's conservation
// laws (internal/invariant); a cell whose report breaks one fails, and
// its violations are listed in the failure manifest.
//
// -sample runs every cell set-sampled (internal/sample): "1/8"
// simulates one in eight cache-set groups and scales the report back
// to a full-cache estimate; "hash:1/8" picks the groups by address
// hash instead of low set bits. The flag replaces the spec file's
// "sample" field, which samples the same way when the flag is absent.
// The sampling spec is part of each cell's content key, so sampled and
// exact cells never alias in the run memo or a checkpoint journal.
// Error bounds are documented in EXPERIMENTS.md; validate a spec with
// mcbench -sample-validate.
//
// All cells of a sweep share one trace arena (internal/tracestore):
// rows that repeat an (app, seed) pair across machines with the same
// front stage (L1s, prefetcher, sampling) replay its stored output
// instead of regenerating the trace and rerunning the L1s. -trace-cache-mb bounds the arena's
// memory; the end-of-sweep summary on stderr reports, manifest-style,
// how many cells ran and how the run memo and the arena performed
// (generated/hits/evictions). -cpuprofile and -memprofile
// write pprof profiles for performance work on the sweep engine.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mobilecache/internal/engine"
	"mobilecache/internal/faultfs"
	"mobilecache/internal/jobs"
	"mobilecache/internal/profiling"
	"mobilecache/internal/runner"
	"mobilecache/internal/sample"
)

func defaultSpec() jobs.Spec {
	return jobs.Spec{
		Machines: []string{"baseline-sram", "sp-mr", "dp-sr"},
		Apps:     []string{"browser", "music"},
		Seeds:    []uint64{1, 2},
		Accesses: 200_000,
	}
}

// options collects the harness knobs.
type options struct {
	jobs           int
	timeout        time.Duration
	keepGoing      bool
	failuresOut    string
	traceCacheMB   int
	checkpointPath string
	resume         bool
	sampleArg      string
	// fs, when non-nil, replaces the filesystem under the checkpoint
	// journal and failure manifest (fault-injection tests only).
	fs faultfs.FS
}

// validate rejects nonsensical harness settings up front — a sweep
// that would hang on zero workers or silently clamp a negative
// deadline must fail before any cell runs. A malformed -sample spec
// (zero, negative, or a non-power-of-two factor) is rejected here for
// the same reason: sampling silently off — or at a factor the sampler
// cannot index — would produce a sweep the operator did not ask for.
func (o *options) validate() error {
	if o.jobs < 1 {
		return fmt.Errorf("-jobs %d is not a runnable worker count (need >= 1)", o.jobs)
	}
	if o.timeout < 0 {
		return fmt.Errorf("-timeout %v is negative; use 0 to disable the per-cell deadline", o.timeout)
	}
	if o.traceCacheMB < 0 {
		return fmt.Errorf("-trace-cache-mb %d is negative; use 0 for an unlimited arena", o.traceCacheMB)
	}
	if o.resume && o.checkpointPath == "" {
		return fmt.Errorf("-resume needs -checkpoint to name the journal to resume from")
	}
	if o.sampleArg != "" {
		if _, err := sample.Parse(o.sampleArg); err != nil {
			return fmt.Errorf("-sample: %w", err)
		}
	}
	return nil
}

// exitIOFault is the exit code for storage faults (ENOSPC, EIO, torn
// writes): the sweep's journaled work is intact and a -resume rerun
// completes it once the disk recovers — unlike exit 1, which covers
// configuration and simulation failures a rerun will hit again.
const exitIOFault = 3

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mcsweep:", err)
		if faultfs.IsIOFault(err) {
			os.Exit(exitIOFault)
		}
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("mcsweep", flag.ContinueOnError)
	specPath := fs.String("spec", "", "sweep spec JSON file")
	outPath := fs.String("o", "", "output CSV file (default stdout)")
	dump := fs.Bool("dump-spec", false, "print a starting-point spec and exit")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile here")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile here")
	var opt options
	fs.IntVar(&opt.jobs, "jobs", runtime.GOMAXPROCS(0), "parallel cells")
	fs.DurationVar(&opt.timeout, "timeout", 0, "per-cell deadline; a cell that reaches it stops and fails (0 = none)")
	fs.BoolVar(&opt.keepGoing, "keep-going", false, "record failed cells and finish the sweep (still exits non-zero)")
	fs.StringVar(&opt.failuresOut, "failures-out", "", "write the failure manifest JSON here (incrementally, then finalized)")
	fs.IntVar(&opt.traceCacheMB, "trace-cache-mb", 256, "trace arena LRU budget in MB (0 = unlimited)")
	fs.StringVar(&opt.checkpointPath, "checkpoint", "", "journal completed cells to this crash-safe file")
	fs.BoolVar(&opt.resume, "resume", false, "skip cells already completed in the -checkpoint journal")
	fs.StringVar(&opt.sampleArg, "sample", "", `set-sampling spec, e.g. "1/8" or "hash:1/8" (default: the spec's sample, else exact simulation)`)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *dump {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(defaultSpec())
	}
	if *specPath == "" {
		return fmt.Errorf("need -spec (or -dump-spec)")
	}
	if err := opt.validate(); err != nil {
		return err
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if opt.sampleArg != "" {
		spec.Sample = opt.sampleArg
	}

	stopProfile, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}

	// -o goes through the atomic CSVFile sink: rows accumulate in
	// memory and land via write-temp/fsync/rename/dirsync, so the
	// output path never holds a half-written CSV and a full disk
	// surfaces as an error instead of a truncated file.
	var sink engine.Sink = engine.NewCSV(out)
	if *outPath != "" {
		sink = engine.NewCSVFile(*outPath)
	}
	// A SIGINT/SIGTERM cancels the sweep context: dispatch stops, the
	// journal and manifest are flushed and fsynced as the engine
	// unwinds, and the run exits non-zero pointing at -resume. A second
	// signal falls back to the default disposition and kills
	// immediately.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	context.AfterFunc(ctx, stopSignals)

	sweepErr := sweep(ctx, spec, opt, sink, errOut)
	if perr := stopProfile(); perr != nil && sweepErr == nil {
		sweepErr = perr
	}
	return sweepErr
}

// loadSpec reads and strictly decodes the spec file with the daemon's
// decoder: unknown fields, repeated keys and trailing data after the
// JSON object (a concatenated second spec, an editing accident) are
// rejected, since silently ignoring them would run a different sweep
// than the file describes.
func loadSpec(path string) (jobs.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return jobs.Spec{}, err
	}
	defer f.Close()
	spec, err := jobs.DecodeSpec(f)
	if err != nil {
		return jobs.Spec{}, fmt.Errorf("spec %s: %w", path, err)
	}
	return spec, nil
}

// sweep executes the spec's grid on the engine and renders the CSV,
// the stderr summary and the exit status. Every machine and app is
// resolved up front: a typo in the spec is a configuration error and
// fails the whole sweep before any cell runs.
func sweep(ctx context.Context, spec jobs.Spec, opt options, sink engine.Sink, errOut io.Writer) error {
	p, err := spec.Plan()
	if err != nil {
		return err
	}

	eng := engine.New(engine.Config{
		Workers:          opt.jobs,
		Timeout:          opt.timeout,
		KeepGoing:        opt.keepGoing,
		TraceBudgetBytes: engine.TraceBudgetMB(opt.traceCacheMB),
	})
	sum, runErr := eng.Execute(ctx, p, engine.ExecOptions{
		CheckpointPath: opt.checkpointPath,
		Resume:         opt.resume,
		FailuresPath:   opt.failuresOut,
		Log:            errOut,
		FS:             opt.fs,
	}, sink)

	if runErr != nil && sum.Manifest.TotalCells == 0 {
		// Setup failed before any cell ran (unopenable journal or
		// manifest, unkeyable cell): no summary to report.
		return runErr
	}

	fmt.Fprintf(errOut,
		"sweep: %d cells (%d ok, %d failed, %d resumed, %d memoized); %s\n",
		sum.Manifest.TotalCells, sum.Manifest.Succeeded, len(sum.Manifest.Failed), sum.Resumed,
		sum.Memoized, engine.CacheSummary(sum.Memo, sum.Store))
	if opt.checkpointPath != "" {
		fmt.Fprintf(errOut, "checkpoint: %d cells appended to %s (%d resumed, %d corrupt bytes discarded)\n",
			sum.CheckpointAppended, opt.checkpointPath, sum.Resumed, sum.CheckpointDiscarded)
	}

	if runErr != nil {
		if errors.Is(runErr, context.Canceled) {
			// Interrupted by a signal: everything completed so far is on
			// disk (the engine fsyncs the journal and manifest as it
			// unwinds), so tell the operator how to continue instead of
			// dumping a cancellation backtrace.
			if opt.checkpointPath != "" {
				return fmt.Errorf("interrupted; completed cells are journaled — rerun with -resume to continue from %s", opt.checkpointPath)
			}
			return fmt.Errorf("interrupted; rerun with -checkpoint and -resume to make sweeps continuable")
		}
		if faultfs.IsIOFault(runErr) {
			// Storage fault, not a simulation failure: the journal's
			// fsynced prefix is intact, so point the operator at -resume
			// (and exit with the distinct I/O-fault code via main).
			if opt.checkpointPath != "" {
				return fmt.Errorf("storage fault: %w; completed cells are journaled in %s — rerun with -resume once the disk recovers",
					runErr, opt.checkpointPath)
			}
			return fmt.Errorf("storage fault: %w; rerun with -checkpoint and -resume to make sweeps continuable past storage faults", runErr)
		}
		var re *runner.RunError
		if errors.As(runErr, &re) {
			return fmt.Errorf("sweep aborted (rerun with -keep-going to finish the healthy cells): %w", re)
		}
		return runErr
	}
	if n := len(sum.Manifest.Failed); n > 0 {
		return fmt.Errorf("%d of %d cells failed (see failure manifest%s)", n, sum.Manifest.TotalCells, manifestHint(opt.failuresOut))
	}
	return nil
}

func manifestHint(path string) string {
	if path == "" {
		return "; pass -failures-out to save it"
	}
	return " in " + path
}
