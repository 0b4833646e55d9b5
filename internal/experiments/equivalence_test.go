package experiments

// Equivalence tests for the engine refactor: the experiments package
// used to drive its matrices through a hand-wired worker pool plus a
// package-global name-keyed run cache; it now goes through
// internal/engine. These tests pin the contract that the move changed
// nothing observable — matrix output is deeply equal to direct
// arena-free sim.Run calls — and that the one intended change (the
// name-keyed cache's staleness bug) is actually fixed.

import (
	"reflect"
	"testing"

	"mobilecache/internal/engine"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
)

// TestMatrixMatchesDirectRuns: matrix() over the canonical scheme list
// returns, for every (machine, app), a report deeply equal to a direct
// arena-free sim.Run with the same derived seed.
func TestMatrixMatchesDirectRuns(t *testing.T) {
	opts := quickOptions()
	opts.Engine = engine.New(engine.Config{}) // isolate from the shared default engine
	got, err := matrix(opts, allSchemes)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range allSchemes {
		cfg, err := sim.MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, app := range opts.Apps {
			want, err := sim.Run(nil, cfg, app, appSeed(opts.Seed, i), 0, opts.Accesses, sample.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[name][app.Name], want) {
				t.Fatalf("matrix report for %s/%s diverges from direct sim.Run", name, app.Name)
			}
		}
	}
}

// TestCachedRunMatchesDirect: the memoized single-cell path returns
// the same report as a cold direct run, on the first call and on the
// memo-served repeat.
func TestCachedRunMatchesDirect(t *testing.T) {
	opts := quickOptions()
	opts.Engine = engine.New(engine.Config{})
	app := opts.Apps[1]
	cfg, err := sim.MachineByName("dp-sr")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(nil, cfg, app, 42, 0, opts.Accesses, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := cachedRun(opts, "dp-sr", app, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cachedRun pass %d diverges from direct sim.Run", pass)
		}
	}
}

// TestRunWorkloadNoStaleCache is the regression test for the old
// package-global runCache: it keyed on (machine name, app name, seed,
// accesses), so a profile whose content changed under an unchanged
// name was served the previous profile's report. The engine memo keys
// on a content hash, so the perturbed profile must get a fresh,
// correct run.
func TestRunWorkloadNoStaleCache(t *testing.T) {
	opts := quickOptions()
	opts.Engine = engine.New(engine.Config{})
	cfg, err := sim.MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	app := opts.Apps[0]
	base, err := runWorkload(opts, cfg, app, 1)
	if err != nil {
		t.Fatal(err)
	}

	perturbed := app
	perturbed.KernelShare += 0.2 // same Name, different content
	got, err := runWorkload(opts, cfg, perturbed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(got, base) {
		t.Fatal("content-modified profile was served the stale report")
	}
	want, err := sim.Run(nil, cfg, perturbed, 1, 0, opts.Accesses, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("perturbed-profile report diverges from direct simulation")
	}
}

// TestMatrixDeterministicAcrossEngines: two fresh engines (cold memo,
// cold arena) and the shared default produce identical matrices — the
// engine is an optimization, never an input.
func TestMatrixDeterministicAcrossEngines(t *testing.T) {
	opts := quickOptions()
	runs := make([]map[string]map[string]sim.RunReport, 3)
	for i := range runs {
		o := opts
		if i < 2 {
			o.Engine = engine.New(engine.Config{})
		} // i == 2 uses the package default engine
		m, err := matrix(o, proposedSchemes)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = m
	}
	if !reflect.DeepEqual(runs[0], runs[1]) || !reflect.DeepEqual(runs[0], runs[2]) {
		t.Fatal("matrix output depends on which engine ran it")
	}
}

// TestExperimentValuesEngineIndependent: a representative experiment's
// headline values are identical whether run on a dedicated engine or
// the shared default — the guarantee mcbench relies on when wiring one
// engine across every experiment of a process.
func TestExperimentValuesEngineIndependent(t *testing.T) {
	opts := quickOptions()
	dedicated := opts
	dedicated.Engine = engine.New(engine.Config{})
	a, err := Run("E7", dedicated)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("E7", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Values, b.Values) {
		t.Fatalf("E7 values depend on the engine:\n%v\n%v", a.Values, b.Values)
	}
	var tbA, tbB []string
	for _, tb := range a.Tables {
		tbA = append(tbA, tb.String())
	}
	for _, tb := range b.Tables {
		tbB = append(tbB, tb.String())
	}
	if !reflect.DeepEqual(tbA, tbB) {
		t.Fatal("E7 rendered tables depend on the engine")
	}
}
