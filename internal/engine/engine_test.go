package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"mobilecache/internal/faultfs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobilecache/internal/checkpoint"
	"mobilecache/internal/runner"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// testPlan builds a small machines x apps x seeds grid.
func testPlan(t *testing.T, machines []string, nApps int, seeds []uint64, accesses int) Plan {
	t.Helper()
	specs := make([]MachineSpec, 0, len(machines))
	for _, name := range machines {
		cfg, err := sim.MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, MachineSpec{Label: name, Config: cfg})
	}
	return Grid(specs, workload.Profiles()[:nApps], seeds, accesses, 0)
}

func TestGridOrder(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram", "sp-mr"}, 2, []uint64{1, 2}, 1000)
	if len(p.Cells) != 8 {
		t.Fatalf("grid has %d cells, want 8", len(p.Cells))
	}
	// Spec order: machines outermost, seeds innermost.
	want := [][2]string{
		{"baseline-sram", workload.Profiles()[0].Name},
		{"baseline-sram", workload.Profiles()[0].Name},
		{"baseline-sram", workload.Profiles()[1].Name},
		{"baseline-sram", workload.Profiles()[1].Name},
		{"sp-mr", workload.Profiles()[0].Name},
	}
	for i, w := range want {
		if p.Cells[i].Machine != w[0] || p.Cells[i].App != w[1] {
			t.Fatalf("cell %d = %s/%s, want %s/%s", i, p.Cells[i].Machine, p.Cells[i].App, w[0], w[1])
		}
	}
	if p.Cells[0].Seed != 1 || p.Cells[1].Seed != 2 {
		t.Fatalf("seeds not innermost: %d, %d", p.Cells[0].Seed, p.Cells[1].Seed)
	}
}

func TestPlanValidate(t *testing.T) {
	if err := (Plan{Accesses: 0}).Validate(); err == nil {
		t.Error("zero accesses accepted")
	}
	if err := (Plan{Accesses: 10, Warmup: -1}).Validate(); err == nil {
		t.Error("negative warmup accepted")
	}
	if err := (Plan{Accesses: 10}).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestExecuteWorkerCountInvariance: the CSV sink's bytes must not
// depend on parallelism — the ordered-emission contract front ends
// rely on for byte-identical sweeps.
func TestExecuteWorkerCountInvariance(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram", "sp-mr"}, 2, []uint64{1, 2}, 3000)
	var serial, parallel bytes.Buffer
	for _, tc := range []struct {
		workers int
		buf     *bytes.Buffer
	}{{1, &serial}, {8, &parallel}} {
		eng := New(Config{Workers: tc.workers})
		if _, err := eng.Execute(context.Background(), p, ExecOptions{}, NewCSV(tc.buf)); err != nil {
			t.Fatal(err)
		}
	}
	if serial.String() != parallel.String() {
		t.Fatal("worker count changed the CSV bytes")
	}
}

// TestExecuteMatchesDirectSimulation: the engine is a pipeline, not a
// model — every report it emits must be deeply equal to a direct
// arena-free sim.Run of the same cell.
func TestExecuteMatchesDirectSimulation(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram", "dp-sr"}, 2, []uint64{7}, 5000)
	col := NewCollector()
	if _, err := New(Config{}).Execute(context.Background(), p, ExecOptions{}, col); err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Cells {
		want, err := sim.Run(context.Background(), nil, c.Config, c.Profile, c.Seed, 0, p.Accesses, sample.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		got := col.ByMachine[c.Machine][c.App]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("engine report for %s/%s diverges from direct simulation", c.Machine, c.App)
		}
	}
}

// TestExecuteWarmupMatchesDirect: warmup plans must match a direct
// arena-free warm sim.Run exactly.
func TestExecuteWarmupMatchesDirect(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram"}, 1, []uint64{3}, 4000)
	p.Warmup = 4000
	col := NewCollector()
	if _, err := New(Config{}).Execute(context.Background(), p, ExecOptions{}, col); err != nil {
		t.Fatal(err)
	}
	c := p.Cells[0]
	want, err := sim.Run(context.Background(), nil, c.Config, c.Profile, c.Seed, p.Warmup, p.Accesses, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(col.ByMachine[c.Machine][c.App], want) {
		t.Fatal("warm engine report diverges from direct warm simulation")
	}
}

// TestRunOneMemoizes: a repeated cell is served from the memo (one
// front-output build, one simulation) and returns the identical report.
func TestRunOneMemoizes(t *testing.T) {
	eng := New(Config{})
	cfg, err := sim.MachineByName("sp-mr")
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{Machine: cfg.Name, Config: cfg, App: workload.Profiles()[0].Name, Profile: workload.Profiles()[0], Seed: 5}
	first, err := eng.RunOneSampled(context.Background(), cell, 4000, 0, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.memo.stats().Entries != 1 {
		t.Fatalf("memo holds %d entries after one run, want 1", eng.memo.stats().Entries)
	}
	second, err := eng.RunOneSampled(context.Background(), cell, 4000, 0, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memoized report differs from the original")
	}
	if st := eng.Store().Stats(); st.Generated != 1 || st.Derived != 1 {
		t.Fatalf("repeat run rebuilt arena entries: %d built (%d derived), want the front output once and no trace", st.Generated, st.Derived)
	}
}

// TestExecuteReportsMemoHits: a second Execute of the same plan is
// satisfied entirely from the memo and says so in the summary.
func TestExecuteReportsMemoHits(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram"}, 2, []uint64{1}, 3000)
	eng := New(Config{})
	if _, err := eng.Execute(context.Background(), p, ExecOptions{}, NewCollector()); err != nil {
		t.Fatal(err)
	}
	sum, err := eng.Execute(context.Background(), p, ExecOptions{}, NewCollector())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Memoized != uint64(len(p.Cells)) {
		t.Fatalf("second execute memoized %d of %d cells", sum.Memoized, len(p.Cells))
	}
}

// TestExecuteKeepGoingChaos: with keep-going, injected failures land
// in the manifest (in plan order) while every healthy cell reaches the
// sinks, and the run error stays nil.
func TestExecuteKeepGoingChaos(t *testing.T) {
	restore := sim.InstallChaos(&sim.Chaos{PanicRate: 0.15, ErrorRate: 0.15, Seed: 4})
	defer restore()

	p := testPlan(t, []string{"baseline-sram", "sp-mr", "dp-sr"}, 2, []uint64{1, 2}, 2000)
	col := NewCollector()
	sum, err := New(Config{Workers: 4, KeepGoing: true}).Execute(context.Background(), p, ExecOptions{}, col)
	if err != nil {
		t.Fatalf("keep-going execute errored: %v", err)
	}
	if sum.Manifest.TotalCells != len(p.Cells) {
		t.Fatalf("manifest covers %d cells, want %d", sum.Manifest.TotalCells, len(p.Cells))
	}
	nFailed := len(sum.Manifest.Failed)
	if nFailed == 0 || nFailed == len(p.Cells) {
		t.Fatalf("chaos should fail some but not all cells: %d/%d", nFailed, len(p.Cells))
	}
	if got := len(col.Results); got != sum.Manifest.Succeeded {
		t.Fatalf("collector saw %d results, manifest says %d succeeded", got, sum.Manifest.Succeeded)
	}
}

// TestExecuteAbortsWithoutKeepGoing: the first failure comes back as a
// *runner.RunError.
func TestExecuteAbortsWithoutKeepGoing(t *testing.T) {
	restore := sim.InstallChaos(&sim.Chaos{ErrorRate: 0.5, Seed: 4})
	defer restore()

	p := testPlan(t, []string{"baseline-sram", "sp-mr"}, 2, []uint64{1, 2}, 2000)
	_, err := New(Config{Workers: 2}).Execute(context.Background(), p, ExecOptions{}, NewCollector())
	var re *runner.RunError
	if !errors.As(err, &re) {
		t.Fatalf("abort error = %v, want *runner.RunError", err)
	}
}

// TestExecuteCheckpointResume: a chaos-degraded checkpointed run plus
// a resumed run converge to the same journal and collector contents as
// an uninterrupted run, and the summary counts the resumes.
func TestExecuteCheckpointResume(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram", "sp-mr"}, 1, []uint64{1, 2, 3, 4}, 8000)
	dir := t.TempDir()
	refCk, ck := filepath.Join(dir, "ref.ckpt"), filepath.Join(dir, "sweep.ckpt")

	refCol := NewCollector()
	if _, err := New(Config{Workers: 2}).Execute(context.Background(), p,
		ExecOptions{CheckpointPath: refCk}, refCol); err != nil {
		t.Fatal(err)
	}

	restore := sim.InstallChaos(&sim.Chaos{ErrorRate: 0.4, Seed: 4})
	sum, err := New(Config{Workers: 2, KeepGoing: true}).Execute(context.Background(), p,
		ExecOptions{CheckpointPath: ck}, NewCollector())
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Manifest.Failed) == 0 || len(sum.Manifest.Failed) == len(p.Cells) {
		t.Fatalf("chaos failed %d/%d cells; need a strict subset", len(sum.Manifest.Failed), len(p.Cells))
	}

	resCol := NewCollector()
	resSum, err := New(Config{Workers: 2}).Execute(context.Background(), p,
		ExecOptions{CheckpointPath: ck, Resume: true}, resCol)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if want := uint64(len(p.Cells) - len(sum.Manifest.Failed)); resSum.Resumed != want {
		t.Fatalf("resumed %d cells, want %d", resSum.Resumed, want)
	}
	if !reflect.DeepEqual(resCol.ByMachine, refCol.ByMachine) {
		t.Fatal("resumed collector diverges from uninterrupted run")
	}
	if !reflect.DeepEqual(journalReports(t, ck), journalReports(t, refCk)) {
		t.Fatal("combined journal diverges from uninterrupted journal")
	}
}

// journalReports decodes a checkpoint journal into key -> report.
func journalReports(t *testing.T, path string) map[checkpoint.Key]sim.RunReport {
	t.Helper()
	entries, _, err := checkpoint.ReadFS(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[checkpoint.Key]sim.RunReport, len(entries))
	for _, e := range entries {
		var rep sim.RunReport
		if err := json.Unmarshal(e.Data, &rep); err != nil {
			t.Fatal(err)
		}
		out[e.Key] = rep
	}
	return out
}

// TestExecuteResumeDiscardsTornTail: a torn journal tail is reported
// to the log writer and counted in the summary.
func TestExecuteResumeDiscardsTornTail(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram"}, 1, []uint64{1, 2, 3}, 5000)
	ck := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := New(Config{}).Execute(context.Background(), p, ExecOptions{CheckpointPath: ck}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ck, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	sum, err := New(Config{}).Execute(context.Background(), p,
		ExecOptions{CheckpointPath: ck, Resume: true, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if sum.CheckpointDiscarded == 0 {
		t.Fatal("summary does not count the discarded tail")
	}
	if !strings.Contains(log.String(), "discarded") {
		t.Fatalf("log does not mention the discard:\n%s", log.String())
	}
	if sum.Resumed != 2 {
		t.Fatalf("resumed %d cells, want 2 (third was torn)", sum.Resumed)
	}
}

// TestExecuteFailureManifestStreams: failures reach the manifest file
// with their structured identity.
func TestExecuteFailureManifestStreams(t *testing.T) {
	restore := sim.InstallChaos(&sim.Chaos{ErrorRate: 0.5, Seed: 4})
	defer restore()

	p := testPlan(t, []string{"baseline-sram", "sp-mr"}, 2, []uint64{1, 2}, 2000)
	mPath := filepath.Join(t.TempDir(), "failed.json")
	sum, err := New(Config{Workers: 2, KeepGoing: true}).Execute(context.Background(), p,
		ExecOptions{FailuresPath: mPath})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var m runner.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, sum.Manifest) {
		t.Fatalf("finalized manifest diverges from summary manifest:\n%+v\n%+v", m, sum.Manifest)
	}
	if len(m.Failed) == 0 {
		t.Fatal("no failures recorded under 50% chaos")
	}
}

// TestExecuteResumeWithoutCheckpoint is the engine-level fail-fast.
func TestExecuteResumeWithoutCheckpoint(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram"}, 1, []uint64{1}, 1000)
	if _, err := New(Config{}).Execute(context.Background(), p, ExecOptions{Resume: true}); err == nil {
		t.Fatal("resume without checkpoint accepted")
	}
}

// TestConcurrentExecutes: one engine driven from several goroutines
// must be race-free (this test is load-bearing under `go test -race`)
// and every caller must see correct, complete results.
func TestConcurrentExecutes(t *testing.T) {
	eng := New(Config{Workers: 2})
	p := testPlan(t, []string{"baseline-sram", "sp-mr"}, 2, []uint64{1, 2}, 2000)
	ref := NewCollector()
	if _, err := eng.Execute(context.Background(), p, ExecOptions{}, ref); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	cols := make([]*Collector, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cols[i] = NewCollector()
			_, errs[i] = eng.Execute(context.Background(), p, ExecOptions{}, cols[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent execute %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(cols[i].ByMachine, ref.ByMachine) {
			t.Fatalf("concurrent execute %d produced different reports", i)
		}
	}
}

// TestExecuteOnResult: the progress-callback sink fires once per
// successful cell with the cell's plan identity, concurrently with the
// run, and the ordered sinks still see everything afterwards.
func TestExecuteOnResult(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram", "sp-mr"}, 2, []uint64{1, 2}, 2000)
	var mu sync.Mutex
	seen := map[int]bool{}
	col := NewCollector()
	sum, err := New(Config{Workers: 4}).Execute(context.Background(), p, ExecOptions{
		OnResult: func(r Result) {
			mu.Lock()
			defer mu.Unlock()
			if seen[r.Index] {
				t.Errorf("OnResult fired twice for cell %d", r.Index)
			}
			seen[r.Index] = true
			if r.Cell.Machine != p.Cells[r.Index].Machine || r.Cell.Seed != p.Cells[r.Index].Seed {
				t.Errorf("OnResult cell %d carries wrong identity: %+v", r.Index, r.Cell)
			}
		},
	}, col)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(p.Cells) {
		t.Fatalf("OnResult fired for %d cells, want %d", len(seen), len(p.Cells))
	}
	if len(col.Results) != len(p.Cells) {
		t.Fatalf("collector saw %d results, want %d", len(col.Results), len(p.Cells))
	}
	if sum.Manifest.Succeeded != len(p.Cells) {
		t.Fatalf("succeeded %d, want %d", sum.Manifest.Succeeded, len(p.Cells))
	}
}

// TestExecuteRepeatedCellKeepsItsIndex: a plan may repeat a (machine,
// app, seed) cell, as a spec with "seeds": [1, 1] does. Each copy must
// report under its own plan index, and a second execution on the same
// engine, where both copies are memo hits, must mark both memoized.
func TestExecuteRepeatedCellKeepsItsIndex(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram"}, 1, []uint64{1, 1}, 2000)
	eng := New(Config{Workers: 2})
	for run := 1; run <= 2; run++ {
		var mu sync.Mutex
		got := map[int]Result{}
		sum, err := eng.Execute(context.Background(), p, ExecOptions{
			OnResult: func(r Result) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[r.Index]; dup {
					t.Errorf("run %d: OnResult fired twice for index %d", run, r.Index)
				}
				got[r.Index] = r
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, saw0 := got[0]
		_, saw1 := got[1]
		if !saw0 || !saw1 || len(got) != 2 {
			t.Fatalf("run %d: OnResult saw %d indexes (0: %v, 1: %v), want {0, 1}", run, len(got), saw0, saw1)
		}
		if run == 2 {
			if !got[0].Memoized || !got[1].Memoized || sum.Memoized != 2 {
				t.Fatalf("second run: memoized %v, %v (summary %d), want both", got[0].Memoized, got[1].Memoized, sum.Memoized)
			}
		}
	}
}

// testGate is a channel semaphore that records its concurrency peak.
type testGate struct {
	slots chan struct{}
	held  int64
	peak  int64
	mu    sync.Mutex
}

func newTestGate(n int) *testGate { return &testGate{slots: make(chan struct{}, n)} }

func (g *testGate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		g.mu.Lock()
		g.held++
		if g.held > g.peak {
			g.peak = g.held
		}
		g.mu.Unlock()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *testGate) Release() {
	g.mu.Lock()
	g.held--
	g.mu.Unlock()
	<-g.slots
}

// TestExecuteGate: an execution given a one-slot gate never runs two
// cells at once, whatever its worker count, and leaks no slots.
func TestExecuteGate(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram", "sp-mr"}, 2, []uint64{1, 2}, 2000)
	g := newTestGate(1)
	if _, err := New(Config{Workers: 6}).Execute(context.Background(), p, ExecOptions{Gate: g}); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.peak > 1 {
		t.Fatalf("gate admitted %d concurrent cells, want 1", g.peak)
	}
	if g.held != 0 {
		t.Fatalf("%d gate slots leaked", g.held)
	}
}

// TestExecuteCancelledKeepsIncrementalManifest: a cancelled execution
// must not replace the fsynced incremental failure log with a manifest
// full of cancellation casualties.
func TestExecuteCancelledKeepsIncrementalManifest(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram"}, 1, []uint64{1, 2, 3, 4}, 2000)
	fpath := filepath.Join(t.TempDir(), "failures.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(Config{Workers: 2, KeepGoing: true}).Execute(ctx, p, ExecOptions{FailuresPath: fpath})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	data, rerr := os.ReadFile(fpath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	var m runner.Manifest
	if json.Unmarshal(data, &m) == nil && m.TotalCells > 0 {
		t.Fatalf("cancelled run finalized a manifest of %d cells: %s", m.TotalCells, data)
	}
}

// TestTimedOutCellsLeaveNoTrace: a cell that reaches its deadline
// stops at its next replay frame and leaves no report behind, so the
// journal, the OnResult callback, the memo and the manifest agree —
// right after Execute returns, and still a second later, long after
// any simulation the execution started would have finished.
func TestTimedOutCellsLeaveNoTrace(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram", "sp-mr"}, 2, []uint64{1}, 400_000)
	ck := filepath.Join(t.TempDir(), "sweep.ckpt")
	var calls atomic.Int64
	eng := New(Config{Workers: 1, Timeout: time.Millisecond, KeepGoing: true})
	sum, err := eng.Execute(context.Background(), p, ExecOptions{
		CheckpointPath: ck,
		OnResult:       func(Result) { calls.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Manifest.Failed) == 0 {
		t.Fatal("a 1ms deadline cut no 400k-access cell")
	}
	if got := sum.Manifest.Succeeded + len(sum.Manifest.Failed); got != len(p.Cells) {
		t.Fatalf("manifest accounts for %d cells, want %d", got, len(p.Cells))
	}
	check := func(when string) {
		entries, _, err := checkpoint.ReadFS(faultfs.OS, ck)
		if err != nil {
			t.Fatal(err)
		}
		ok := sum.Manifest.Succeeded
		if int(calls.Load()) != ok || len(entries) != ok || eng.MemoStats().Entries != ok {
			t.Fatalf("%s: %d OnResult calls, %d journal entries, %d memo entries; want the %d succeeded cells",
				when, calls.Load(), len(entries), eng.MemoStats().Entries, ok)
		}
	}
	check("on return")
	time.Sleep(time.Second)
	check("1s later")
}

// TestCancelledCellLeavesNoMemoEntry: a cell cancelled mid-run
// returns context.Canceled and memoizes nothing.
func TestCancelledCellLeavesNoMemoEntry(t *testing.T) {
	eng := New(Config{})
	c := testPlan(t, []string{"baseline-sram"}, 1, []uint64{1}, 1).Cells[0]
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	_, err := eng.RunOneSampled(ctx, c, 1_000_000, 0, sample.Spec{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := eng.MemoStats(); st.Entries != 0 {
		t.Fatalf("cancelled cell left %d memo entries", st.Entries)
	}
}

// TestCacheSummary pins the one-line cache summary mcsweep, mcbench and
// mcsim print: the arena's derived builds (shared front-stage outputs)
// show next to the generations that include them.
func TestCacheSummary(t *testing.T) {
	got := CacheSummary(
		MemoStats{Hits: 1, Misses: 2, Duplicates: 3, Evictions: 4, Entries: 5},
		tracestore.Stats{Generated: 6, Derived: 3, Hits: 18, Misses: 6, BytesInUse: 3 << 20, Evictions: 1})
	want := "run memo: 1 hits, 2 misses, 3 dup adds, 4 evicted, 5 entries; " +
		"trace arena: 6 generated (3 derived), 18 hits, 6 misses, 3.0 MB resident, 1 evicted"
	if got != want {
		t.Fatalf("CacheSummary =\n %s\nwant\n %s", got, want)
	}
}
