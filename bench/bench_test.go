package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mobilecache/internal/jobs"
)

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks the result line each would print: every metric listed
// for the mode is present and finite, nothing failed, the output
// check ran, and every span nests inside its parent.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := options{workload: w.name, seed: 1, out: t.TempDir(), accesses: 20_000, trace: traced}
				res, err := run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				metrics := endToEnd
				if traced {
					metrics = perLayer
				}
				if _, err := resultLine(res, metrics); err != nil {
					t.Fatal(err)
				}
				if len(res.metrics) != len(metrics) {
					t.Errorf("trace=%v: %d metrics computed, %d listed", traced, len(res.metrics), len(metrics))
				}
				if !res.correct() || res.failed != 0 {
					t.Errorf("trace=%v: %d of %d operations failed, %d checked", traced, res.failed, res.attempted, res.checked)
				}
				if traced {
					checkNesting(t, res.spans)
				}
			}
		})
	}
}

func checkNesting(t *testing.T, spans []span) {
	t.Helper()
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %s names a missing parent", s.Name)
			continue
		}
		if s.Start < p.Start || s.End > p.End || s.Trace != p.Trace {
			t.Errorf("span %s [%d,%d] escapes its parent %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if roots == 0 || roots == len(spans) {
		t.Errorf("%d root spans of %d: the traced run recorded no layer calls", roots, len(spans))
	}
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON checks BENCHMARK.json against its rules and
// against the metrics and workloads this package implements.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("command %v / paths %v do not name this package", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || used[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		used[name] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(b.Workloads), len(workloads))
	}
	listedWorkloads := map[string]bool{}
	for i, w := range b.Workloads {
		checkName(w.Name)
		listedWorkloads[w.Name] = true
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), implemented %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s needs a one-line why of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d implemented", len(b.EndToEnd), len(endToEnd))
	}
	listedE2E := map[string]bool{}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		listedE2E[m.Name] = true
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end %d is %s/%s/%s, implemented %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s needs a bound in (0, 0.25]", m.Name)
			continue
		}
		maxBound = math.Max(maxBound, *m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound == nil || *m.Bound != maxBound) {
			t.Errorf("setup_s must be seconds, lower-is-better, with the largest bound")
		}
	}
	if !listedE2E["setup_s"] {
		t.Error("setup_s is not listed")
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d implemented", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d is %s/%s/%s, implemented %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if (want.moves == "") != (len(want.on) == 0) {
			t.Errorf("per-layer %s predicts half a movement", want.name)
		}
		if want.moves != "" && !listedE2E[want.moves] {
			t.Errorf("per-layer %s moves %q, which is not an end-to-end metric", want.name, want.moves)
		}
		for _, w := range want.on {
			if !listedWorkloads[w] {
				t.Errorf("per-layer %s moves on %q, which is not a workload", want.name, w)
			}
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("%s: direction %q", m.name, m.better)
		}
	}
}

// TestCheckCatchesWrongOutput hands the output check a report with one
// counter bumped and a daemon CSV with one byte flipped: each must fail,
// and the untouched originals must pass.
func TestCheckCatchesWrongOutput(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{wShared, wSampled} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w.accesses = 20_000
		plan, err := w.sweepPlan(1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runRound(ctx, plan, w.engineConfig())
		if err != nil {
			t.Fatal(err)
		}
		i := len(plan.Cells) - 1
		if !checkReport(plan, i, r.reports[i]) {
			t.Fatalf("%s: the engine's own report fails the check", name)
		}
		bumped := r.reports[i]
		bumped.L2.Hits[0]++
		if checkReport(plan, i, bumped) {
			t.Errorf("%s: a report with one L2 hit added passes the check", name)
		}
		if !plan.Sample.Enabled() {
			continue
		}
		cells, _, failed, err := tracedRound(ctx, newTracer(), plan, w.engineConfig(), "check")
		if err != nil || failed > 0 {
			t.Fatalf("traced round: %v (%d failed)", err, failed)
		}
		if !checkSampledRaw(plan, i, cells[i].rep) {
			t.Fatalf("%s: the traced cell's raw report fails the check", name)
		}
		raw := cells[i].rep
		raw.DRAMReads++
		if checkSampledRaw(plan, i, raw) {
			t.Errorf("%s: a raw report with one DRAM read added passes the check", name)
		}
	}

	w, err := workloadByName(wDaemon)
	if err != nil {
		t.Fatal(err)
	}
	w.accesses = 20_000
	m, err := jobs.New(jobs.Options{Root: t.TempDir(), Workers: workers, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(m)
	spec := w.jobSpec(1, 0, 0)
	rec := runJob(ctx, m, spec, "test", nil)
	if !rec.ok || !checkJobCSV(ctx, spec, rec.csv) {
		t.Fatalf("the daemon's own CSV fails the check (ok=%v)", rec.ok)
	}
	flipped := append([]byte(nil), rec.csv...)
	flipped[len(flipped)/2] ^= 1
	if checkJobCSV(ctx, spec, flipped) {
		t.Error("a CSV with one byte flipped passes the check")
	}
}
