// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment has an ID — E1..E12 are the
// reconstructed paper figures, E13..E21 ablation/robustness extensions,
// T1..T3 the tables — runs deterministically from Options, and returns
// rendered tables plus the headline scalar values that EXPERIMENTS.md
// records against the paper's numbers.
//
// The experiments are exposed three ways: programmatically via Run,
// from the command line via cmd/mcbench, and as benchmarks in the
// repository root's bench_test.go.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"mobilecache/internal/config"
	"mobilecache/internal/engine"
	"mobilecache/internal/report"
	"mobilecache/internal/runner"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

// Options scales an experiment run.
type Options struct {
	// Accesses is the trace length per app.
	Accesses int
	// Seed drives the workload generators.
	Seed uint64
	// Apps are the application profiles to evaluate.
	Apps []workload.Profile
	// Engine executes every simulation of the run — it supplies the
	// shared trace arena and the content-hash run memo; nil selects the
	// package-shared default engine. Results are independent of the
	// engine (memoized and cached-replay runs are bit-identical to
	// fresh ones) — it only removes redundant work.
	Engine *engine.Engine
	// Sample runs every simulation set-sampled at the given spec and
	// scales the reports back to full-cache estimates — a speed/
	// accuracy trade documented in EXPERIMENTS.md. The zero value
	// disables sampling (exact simulation). Fault-sensitivity
	// experiments (E21) should not be sampled: rare-event counts do
	// not extrapolate reliably from 1/Factor of the sets.
	Sample sample.Spec
}

// defaultEngine backs every experiment run that does not bring its own
// engine, so traces and memoized cells are shared across experiments
// within a process (mcbench runs E1..T3 back to back over the same
// apps).
var defaultEngine = engine.New(engine.Config{})

// eng resolves the effective engine for the run.
func (o Options) eng() *engine.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return defaultEngine
}

// runWorkload is the engine-backed simulation entry every experiment
// uses: identical results to a direct sim.Run, minus the redundant
// trace regeneration and re-simulation. The engine memo keys on a
// content hash of the machine config and profile, so experiments that
// perturb a config or profile under an unchanged name always get a
// fresh run.
func runWorkload(opts Options, cfg config.Machine, app workload.Profile, seed uint64) (sim.RunReport, error) {
	return opts.eng().RunOneSampled(context.Background(), engine.Cell{
		Machine: cfg.Name, Config: cfg, App: app.Name, Profile: app, Seed: seed,
	}, opts.Accesses, 0, opts.Sample)
}

// runOnMachine replays opts.Accesses of app, generated from seed,
// through a machine the experiment built itself, outside the engine:
// the path of the experiments that wire a machine by hand or inspect
// it after the run. The report is audited as an engine cell's is. The
// phase length is workload.PhaseLen's, the rule sim.Run and the trace
// store use.
func runOnMachine(opts Options, m *sim.Machine, app workload.Profile, seed uint64) (sim.RunReport, error) {
	gen, err := workload.NewGenerator(app, seed, workload.PhaseLen(app, opts.Accesses))
	if err != nil {
		return sim.RunReport{}, err
	}
	return sim.RunSampledTrace(m, app.Name, trace.NewLimitSource(gen, opts.Accesses), 0)
}

// DefaultOptions is the full-size configuration cmd/mcbench uses.
func DefaultOptions() Options {
	return Options{Accesses: 400_000, Seed: 1, Apps: workload.Profiles()}
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.Accesses <= 0 {
		return fmt.Errorf("experiments: accesses must be positive")
	}
	if len(o.Apps) == 0 {
		return fmt.Errorf("experiments: no apps selected")
	}
	if err := o.Sample.Validate(); err != nil {
		return err
	}
	return nil
}

// Result is one experiment's rendered outcome.
type Result struct {
	// ID and Title identify the experiment.
	ID    string
	Title string
	// Paper states what the paper reports for this experiment (the
	// target shape).
	Paper string
	// Tables hold the regenerated data.
	Tables []*report.Table
	// Notes are one-line findings derived from the run.
	Notes []string
	// Values exposes headline scalars by name for tests and
	// EXPERIMENTS.md.
	Values map[string]float64
	// Figures holds rendered SVG documents by filename (without
	// directory); cmd/mcbench -svg writes them out.
	Figures map[string]string
}

func (r *Result) addFigure(name, svg string) {
	if r.Figures == nil {
		r.Figures = map[string]string{}
	}
	r.Figures[name] = svg
}

func (r *Result) addValue(name string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[name] = v
}

func (r *Result) addNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// experiment is one experiment implementation.
type experiment struct {
	title string
	paper string
	fn    func(Options) (Result, error)
}

// registry maps experiment IDs to implementations; filled by init
// functions across the package's files.
var registry = map[string]experiment{}

func register(id, title, paper string, fn func(Options) (Result, error)) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = experiment{title: title, paper: paper, fn: fn}
}

// IDs lists the registered experiment IDs in canonical order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// E-prefixed numerically, then T-prefixed numerically.
		a, b := ids[i], ids[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		var na, nb int
		fmt.Sscanf(a[1:], "%d", &na)
		fmt.Sscanf(b[1:], "%d", &nb)
		return na < nb
	})
	return ids
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	res, err := r.fn(opts)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID, res.Title, res.Paper = id, r.title, r.paper
	return res, nil
}

// Title returns an experiment's title without running it.
func Title(id string) string { return registry[id].title }

// appSeed derives a per-app seed so apps differ but runs reproduce.
func appSeed(base uint64, appIndex int) uint64 {
	return base*1_000_003 + uint64(appIndex)*7919
}

// matrix runs every app on every named standard machine through the
// engine's bounded, panic-containing worker pool. Reports are keyed
// [machine][app]. Results are deterministic regardless of scheduling:
// each cell is an independent cold-machine simulation (memoized by
// the engine) and the collector receives outcomes in cell order.
func matrix(opts Options, machineNames []string) (map[string]map[string]sim.RunReport, error) {
	var cells []engine.Cell
	for _, name := range machineNames {
		cfg, err := sim.MachineByName(name)
		if err != nil {
			return nil, err
		}
		for i, app := range opts.Apps {
			cells = append(cells, engine.Cell{
				Machine: name, Config: cfg, App: app.Name, Profile: app, Seed: appSeed(opts.Seed, i),
			})
		}
	}

	col := engine.NewCollector()
	_, err := opts.eng().Execute(context.Background(),
		engine.Plan{Cells: cells, Accesses: opts.Accesses, Sample: opts.Sample}, engine.ExecOptions{}, col)
	if err != nil {
		var re *runner.RunError
		if errors.As(err, &re) {
			return nil, fmt.Errorf("%s on %s: %w", re.Cell.App, re.Cell.Machine, re.Err)
		}
		return nil, err
	}
	return col.ByMachine, nil
}

// appNames lists the option's app names in order.
func appNames(opts Options) []string {
	names := make([]string, len(opts.Apps))
	for i, a := range opts.Apps {
		names[i] = a.Name
	}
	return names
}

// allSchemes is the canonical machine ordering in comparison tables.
var allSchemes = []string{"baseline-sram", "baseline-stt", "sp", "sp-mr", "dp", "dp-sr"}

// proposedSchemes are the paper's four designs (excluding baselines).
var proposedSchemes = []string{"sp", "sp-mr", "dp", "dp-sr"}
