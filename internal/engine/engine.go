// Package engine is the single execution pipeline behind every grid
// of (machine, app, seed) simulations in this repository. The four
// front ends — cmd/mcsweep, cmd/mcbench, cmd/mcsim and
// internal/experiments — used to hand-wire the same layers three
// different ways; they now all build a Plan and hand it to an Engine,
// which composes, in one place:
//
//   - internal/tracestore: one shared trace arena per engine, so cells
//     that repeat an (app, seed, accesses) triple replay the cached
//     packed trace instead of regenerating it;
//   - internal/runner: bounded workers, per-cell deadlines, panic
//     isolation and keep-going degradation; each cell runs once, and
//     one whose deadline passes or whose execution is cancelled stops
//     at its next replay frame with no report, memo entry, journal
//     entry or OnResult call;
//   - internal/checkpoint: an optional crash-safe journal of completed
//     cells keyed by a content hash of each cell's full inputs, with
//     resume-by-key so a killed sweep continues where it stopped;
//   - internal/invariant: the conservation audit, applied inside
//     sim.Run to every report; a violating report fails its cell;
//   - incremental failure manifests (runner.ManifestLogger), streamed
//     as cells fail and finalized at the end;
//   - a bounded per-engine run memo keyed by the same content hash the
//     checkpoint journal uses, so identical cells across plans (or
//     experiments) simulate once — and a caller that modifies a
//     machine or profile under an unchanged name can never be served
//     a stale report.
//
// Results flow to pluggable Sinks (Collector, CSV, CSVFile; the
// checkpoint journal is an engine-internal tee) in plan order, so a
// future front end — an HTTP API, a sharded backend — is a new Sink
// plus wiring, not a fourth copy of the pipeline.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"mobilecache/internal/checkpoint"
	"mobilecache/internal/config"
	"mobilecache/internal/faultfs"
	"mobilecache/internal/runner"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// Cell is one unit of grid work: a resolved machine configuration and
// workload profile plus the labels the cell is reported under. Labels
// are what failure manifests and sinks show (for mcsweep, the spec
// entry — possibly a config-file path); Config/Profile are what runs.
type Cell struct {
	Machine string
	Config  config.Machine
	App     string
	Profile workload.Profile
	Seed    uint64
}

// Plan is a typed grid execution request: cells plus the run lengths
// shared by all of them. A positive Warmup measures only the accesses
// after the warmup prefix.
type Plan struct {
	Cells    []Cell
	Accesses int
	Warmup   int
	// Sample, when enabled (factor > 1), runs every cell set-sampled:
	// 1/Factor of the cache sets are simulated and the reports are
	// scaled back to full-run estimates. The spec is part of each
	// cell's content key, so sampled and full results can never alias
	// in the memo or a checkpoint journal.
	Sample sample.Spec
}

// Validate reports plan errors before any cell runs.
func (p Plan) Validate() error {
	if p.Accesses <= 0 {
		return fmt.Errorf("engine: accesses must be positive")
	}
	if p.Warmup < 0 {
		return fmt.Errorf("engine: negative warmup")
	}
	if err := p.Sample.Validate(); err != nil {
		return err
	}
	return nil
}

// MachineSpec pairs a grid label with its resolved configuration.
type MachineSpec struct {
	Label  string
	Config config.Machine
}

// ResolveMachine resolves a sweep-spec machine entry: standard scheme
// names win, and only non-schemes fall back to config-file loading.
// (Resolving by name first means a scheme alias containing a '.' can
// never be silently mistaken for a file path.)
func ResolveMachine(entry string) (config.Machine, error) {
	if m, err := sim.MachineByName(entry); err == nil {
		return m, nil
	}
	m, err := config.LoadFile(entry)
	if err != nil {
		return config.Machine{}, fmt.Errorf("machine %q is not a standard scheme (have %v) and not a loadable config file: %w",
			entry, sim.StandardMachineNames(), err)
	}
	return m, nil
}

// Grid crosses machines x apps x seeds in the given order — the spec
// order every sweep front end documents — into a Plan.
func Grid(machines []MachineSpec, apps []workload.Profile, seeds []uint64, accesses, warmup int) Plan {
	cells := make([]Cell, 0, len(machines)*len(apps)*len(seeds))
	for _, m := range machines {
		for _, app := range apps {
			for _, seed := range seeds {
				cells = append(cells, Cell{
					Machine: m.Label,
					Config:  m.Config,
					App:     app.Name,
					Profile: app,
					Seed:    seed,
				})
			}
		}
	}
	return Plan{Cells: cells, Accesses: accesses, Warmup: warmup}
}

// Config shapes an Engine. The zero value is usable: GOMAXPROCS
// workers, no deadline and a default-budget trace arena. The run memo
// always holds DefaultMemoCapacity entries.
type Config struct {
	// Workers bounds the parallel cells; <= 0 uses GOMAXPROCS.
	Workers int
	// Timeout is the per-cell deadline; 0 disables it. A cell that
	// reaches it stops at its next replay frame and fails.
	Timeout time.Duration
	// KeepGoing records failures and lets sibling cells complete;
	// otherwise the first failure cancels the rest of the plan.
	KeepGoing bool
	// TraceBudgetBytes bounds the engine's trace arena: > 0 is a byte
	// budget, 0 selects tracestore.DefaultBudgetBytes, < 0 is
	// unlimited.
	TraceBudgetBytes int64
}

// TraceBudgetMB converts a front end's -trace-cache-mb flag value to a
// TraceBudgetBytes setting (0 MB means unlimited, matching the flags'
// documented semantics).
func TraceBudgetMB(mb int) int64 {
	if mb == 0 {
		return -1
	}
	return int64(mb) << 20
}

// Engine executes Plans. One engine holds one trace arena and one run
// memo; front ends build a single engine per process (or per sweep)
// and drive every grid through it.
type Engine struct {
	cfg   Config
	store *tracestore.Store
	memo  *memo
}

// New builds an engine from cfg.
func New(cfg Config) *Engine {
	budget := cfg.TraceBudgetBytes
	switch {
	case budget == 0:
		budget = tracestore.DefaultBudgetBytes
	case budget < 0:
		budget = 0 // tracestore treats 0 as unlimited
	}
	return &Engine{cfg: cfg, store: tracestore.New(budget), memo: newMemo()}
}

// Store exposes the engine's trace arena (for stats reporting and for
// callers that need to share it with non-engine code paths).
func (e *Engine) Store() *tracestore.Store { return e.store }

// MemoStats snapshots the run memo's hit/miss/eviction counters (the
// daemon's /metrics reads them live).
func (e *Engine) MemoStats() MemoStats { return e.memo.stats() }

// keyOf hashes one cell's full inputs exactly the way the checkpoint
// journal always has — machine config, profile, seed, accesses,
// warmup, in that order — so pre-existing journals stay resumable and
// the memo can never serve a report for different content. An enabled
// sampling spec appends itself to the key: a sampled estimate and a
// full result are different content and must never alias; a disabled
// spec appends nothing, so factor-1 keys equal the historical keys and
// old journals resume cleanly.
func keyOf(c Cell, accesses, warmup int, spec sample.Spec) (checkpoint.Key, error) {
	if spec.Norm().Enabled() {
		return checkpoint.KeyOf(c.Config, c.Profile, c.Seed, accesses, warmup, "sample", spec.Factor, spec.Hash)
	}
	return checkpoint.KeyOf(c.Config, c.Profile, c.Seed, accesses, warmup)
}

// RunOneSampled executes a single cell through the full pipeline —
// memo, shared trace arena, audit — without the worker pool. It is the
// single-cell entry the experiments package and cmd/mcsim use; a
// disabled spec runs the cell exactly.
func (e *Engine) RunOneSampled(ctx context.Context, c Cell, accesses, warmup int, spec sample.Spec) (sim.RunReport, error) {
	if err := (Plan{Accesses: accesses, Warmup: warmup, Sample: spec}).Validate(); err != nil {
		return sim.RunReport{}, err
	}
	if err := ctx.Err(); err != nil {
		return sim.RunReport{}, err
	}
	key, err := keyOf(c, accesses, warmup, spec)
	if err != nil {
		return sim.RunReport{}, err
	}
	rep, _, err := e.runKeyed(ctx, c, key, accesses, warmup, spec)
	return rep, err
}

// ExecOptions are the per-execution knobs (the per-engine ones live in
// Config).
type ExecOptions struct {
	// CheckpointPath journals every completed cell to this crash-safe
	// file; empty disables journaling.
	CheckpointPath string
	// Resume replays the journal's valid prefix and skips every cell
	// whose content key matches a journaled entry.
	Resume bool
	// FailuresPath streams failures incrementally to this manifest file
	// and finalizes it with the canonical manifest at the end.
	FailuresPath string
	// Log receives diagnostics (discarded checkpoint tails, undecodable
	// entries); nil discards them.
	Log io.Writer
	// OnResult, when non-nil, is the progress-callback sink: it fires
	// the moment a cell completes successfully — from the worker
	// goroutine, in completion order, not plan order — so a long
	// execution can stream results and progress while the ordered Sinks
	// still see everything in plan order at the end. It fires exactly
	// for the cells the manifest counts as succeeded, and never after
	// Execute returns. It may be called concurrently and must be safe
	// for that.
	OnResult func(Result)
	// OnFailure, when non-nil, fires as cells fail (see
	// runner.Config.OnFailure); it runs in addition to the FailuresPath
	// manifest logger, not instead of it.
	OnFailure func(*runner.RunError)
	// Gate, when non-nil, is acquired once per cell before it runs —
	// the hook a multi-plan scheduler (the sweep daemon) uses to bound
	// and fair-share one machine-wide slot set across concurrent
	// executions. See runner.Gate.
	Gate runner.Gate
	// FS is the filesystem every durable artifact of this execution
	// (checkpoint journal, failure manifest) goes through; nil selects
	// the real one. Fault-injection tests swap in a faultfs.FaultFS to
	// torture the persistence path deterministically.
	FS faultfs.FS
}

// Summary is what a plan execution leaves behind besides the sink
// outputs: the failure manifest, the resume/memo counters and the
// trace arena's statistics.
type Summary struct {
	Manifest runner.Manifest
	// Resumed counts cells satisfied from the resumed checkpoint
	// journal; Memoized counts cells satisfied from the engine memo.
	Resumed  uint64
	Memoized uint64
	// CheckpointAppended is how many cells were journaled this
	// execution; CheckpointDiscarded is how many corrupt trailing bytes
	// resume discarded.
	CheckpointAppended  int
	CheckpointDiscarded int64
	Store               tracestore.Stats
	// Memo is the run memo's counter snapshot at the end of the
	// execution (cumulative for the engine, like Store).
	Memo MemoStats
}

// CacheSummary renders the engine's two cache snapshots as the one-line
// form every front end's run summary uses, so mcsweep, mcbench and
// mcsim report the memo and arena identically.
func CacheSummary(memo MemoStats, st tracestore.Stats) string {
	return fmt.Sprintf(
		"run memo: %d hits, %d misses, %d dup adds, %d evicted, %d entries (%d shards); trace arena: %d generated, %d hits, %d misses, %.1f MB resident, %d evicted, %d demoted (%d shards)",
		memo.Hits, memo.Misses, memo.Duplicates, memo.Evictions, memo.Entries, memo.Shards,
		st.Generated, st.Hits, st.Misses, float64(st.BytesInUse)/(1<<20), st.Evictions, st.Demotions, st.Shards)
}

// Execute runs the plan on the engine's worker pool and feeds every
// successful cell's result, in plan order, to each sink. The returned
// error mirrors the runner's semantics: with KeepGoing it is nil even
// when cells failed (inspect Summary.Manifest); without it, the first
// failure aborts the plan and comes back as a *runner.RunError.
// Whatever happens, the Summary is valid and the sinks have seen every
// healthy result collected before the failure.
func (e *Engine) Execute(ctx context.Context, plan Plan, opt ExecOptions, sinks ...Sink) (Summary, error) {
	var sum Summary
	logw := opt.Log
	if logw == nil {
		logw = io.Discard
	}
	if err := plan.Validate(); err != nil {
		return sum, err
	}
	if opt.Resume && opt.CheckpointPath == "" {
		return sum, fmt.Errorf("engine: resume needs a checkpoint path")
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = faultfs.OS
	}

	// Key every cell up front: a cell that cannot be keyed is a
	// configuration error and must fail the plan before any cell runs.
	rcells := make([]runner.Cell, len(plan.Cells))
	keys := make([]checkpoint.Key, len(plan.Cells))
	for i, c := range plan.Cells {
		rc := runner.Cell{Machine: c.Machine, App: c.App, Seed: c.Seed, Index: i}
		key, err := keyOf(c, plan.Accesses, plan.Warmup, plan.Sample)
		if err != nil {
			return sum, fmt.Errorf("keying cell %s: %w", rc, err)
		}
		rcells[i], keys[i] = rc, key
	}

	journal, resumed, discarded, err := e.openJournal(fsys, opt, logw)
	if err != nil {
		return sum, err
	}
	sum.CheckpointDiscarded = discarded

	var mlog *runner.ManifestLogger
	rcfg := runner.Config{
		Workers:   e.cfg.Workers,
		Timeout:   e.cfg.Timeout,
		KeepGoing: e.cfg.KeepGoing,
		OnFailure: opt.OnFailure,
		Gate:      opt.Gate,
	}
	if opt.FailuresPath != "" {
		mlog, err = runner.NewManifestLoggerFS(fsys, opt.FailuresPath)
		if err != nil {
			if journal != nil {
				journal.Close()
			}
			return sum, fmt.Errorf("opening failure manifest %s: %w", opt.FailuresPath, err)
		}
		if next := opt.OnFailure; next != nil {
			rcfg.OnFailure = func(e *runner.RunError) { mlog.Record(e); next(e) }
		} else {
			rcfg.OnFailure = mlog.Record
		}
	}

	var nResumed, nMemoized atomic.Uint64
	fromResume := make([]bool, len(plan.Cells))
	fromMemo := make([]bool, len(plan.Cells))
	outcomes, runErr := runner.Run(ctx, rcfg, rcells,
		func(ctx context.Context, rc runner.Cell) (sim.RunReport, error) {
			i := rc.Index
			key := keys[i]
			rep, ok := resumed[key]
			if ok {
				// Already completed (and audited) in a previous run; it is
				// in the journal by definition, so no re-append.
				nResumed.Add(1)
				fromResume[i] = true
			} else {
				var memoized bool
				var err error
				rep, memoized, err = e.runKeyed(ctx, plan.Cells[i], key, plan.Accesses, plan.Warmup, plan.Sample)
				if err != nil {
					return rep, err
				}
				if memoized {
					nMemoized.Add(1)
					fromMemo[i] = true
				}
				if journal != nil {
					// A cell whose result can't be made durable is a failed
					// cell: the caller asked for crash safety.
					if jerr := journal.AppendJSON(key, rep); jerr != nil {
						return rep, fmt.Errorf("checkpoint append: %w", jerr)
					}
				}
			}
			if opt.OnResult != nil {
				opt.OnResult(Result{
					Index: i, Cell: plan.Cells[i], Key: key, Report: rep,
					Resumed: fromResume[i], Memoized: fromMemo[i],
				})
			}
			return rep, nil
		})

	if journal != nil {
		sum.CheckpointAppended = journal.Appended()
		if cerr := journal.Close(); cerr != nil && runErr == nil {
			runErr = fmt.Errorf("closing checkpoint %s: %w", opt.CheckpointPath, cerr)
		}
	}
	sum.Resumed, sum.Memoized = nResumed.Load(), nMemoized.Load()
	sum.Manifest = runner.BuildManifest(outcomes)
	sum.Store = e.store.Stats()
	sum.Memo = e.memo.stats()

	// Sinks see successful results in plan order, so identical plans
	// produce identical sink output regardless of worker count.
	for i, o := range outcomes {
		if o.Err != nil {
			continue
		}
		res := Result{
			Index:    i,
			Cell:     plan.Cells[i],
			Key:      keys[i],
			Report:   o.Value,
			Resumed:  fromResume[i],
			Memoized: fromMemo[i],
		}
		for _, s := range sinks {
			if err := s.Emit(res); err != nil {
				return sum, err
			}
		}
	}
	for _, s := range sinks {
		if err := s.Flush(); err != nil {
			return sum, err
		}
	}

	if mlog != nil {
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			// An interrupted execution is not a final verdict: finalizing
			// would replace the fsynced incremental failure log with a
			// manifest dominated by cancellation casualties (every
			// undispatched cell of an aborted million-cell plan). Keep the
			// line log; a resumed execution rebuilds the real manifest.
			if cerr := mlog.Close(); cerr != nil {
				fmt.Fprintf(logw, "failure manifest %s: %v\n", opt.FailuresPath, cerr)
			}
		} else if err := mlog.Finalize(sum.Manifest); err != nil {
			return sum, fmt.Errorf("writing failure manifest %s: %w", opt.FailuresPath, err)
		}
	}
	return sum, runErr
}

// runKeyed satisfies one keyed cell from the memo or the simulator. A
// simulation cut short by ctx returns ctx's error and memoizes nothing.
func (e *Engine) runKeyed(ctx context.Context, c Cell, key checkpoint.Key, accesses, warmup int, spec sample.Spec) (rep sim.RunReport, memoized bool, err error) {
	if rep, ok := e.memo.get(key); ok {
		return rep, true, nil
	}
	rep, err = sim.Run(ctx, e.store, c.Config, c.Profile, c.Seed, warmup, accesses, spec)
	if err != nil {
		return rep, false, err
	}
	e.memo.add(key, rep)
	return rep, false, nil
}

// openJournal opens (or resumes) the execution's checkpoint journal.
// Resume replays the valid prefix — later entries win, so a cell
// re-run after a crash supersedes its earlier record — and truncates
// any torn tail.
func (e *Engine) openJournal(fsys faultfs.FS, opt ExecOptions, logw io.Writer) (*checkpoint.Journal, map[checkpoint.Key]sim.RunReport, int64, error) {
	if opt.CheckpointPath == "" {
		return nil, nil, 0, nil
	}
	if !opt.Resume {
		j, err := checkpoint.CreateFS(fsys, opt.CheckpointPath, 0)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("creating checkpoint %s: %w", opt.CheckpointPath, err)
		}
		return j, nil, 0, nil
	}
	j, entries, info, err := checkpoint.ResumeFS(fsys, opt.CheckpointPath, 0)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("resuming checkpoint %s: %w", opt.CheckpointPath, err)
	}
	resumed := make(map[checkpoint.Key]sim.RunReport, len(entries))
	for _, e := range entries {
		var rep sim.RunReport
		if err := json.Unmarshal(e.Data, &rep); err != nil {
			// CRC-valid but undecodable means a format-version skew;
			// re-running the cell is always safe.
			fmt.Fprintf(logw, "checkpoint: skipping undecodable entry: %v\n", err)
			continue
		}
		resumed[e.Key] = rep
	}
	if info.DiscardedBytes > 0 {
		fmt.Fprintf(logw, "checkpoint: discarded %d corrupt trailing bytes (crash remnant); %d entries survive\n",
			info.DiscardedBytes, len(entries))
	}
	return j, resumed, info.DiscardedBytes, nil
}
