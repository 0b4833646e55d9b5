package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobilecache/internal/checkpoint"
	"mobilecache/internal/engine"
	"mobilecache/internal/faultfs"
	"mobilecache/internal/sim"
)

// testSpec is a small real sweep (cells simulate in milliseconds).
func testSpec(seeds ...uint64) Spec {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2}
	}
	return Spec{
		Machines: []string{"baseline-sram", "sp-mr"},
		Apps:     []string{"browser"},
		Seeds:    seeds,
		Accesses: 2000,
	}
}

// referenceCSV renders the spec's uninterrupted output through a fresh
// engine — the bytes every daemon path must reproduce.
func referenceCSV(t *testing.T, spec Spec) []byte {
	t.Helper()
	p, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := engine.New(engine.Config{Workers: 2}).Execute(
		context.Background(), p, engine.ExecOptions{}, engine.NewCSV(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	if opts.Root == "" {
		opts.Root = t.TempDir()
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	opts.KeepGoing = true
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	select {
	case <-j.Finished():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish: %+v", j.ID(), j.Status())
	}
	return j.Status()
}

// A submitted job runs to done and its final CSV is byte-identical to
// a direct engine execution of the same spec.
func TestSubmitRunsToDone(t *testing.T) {
	m := newTestManager(t, Options{})
	defer m.Shutdown(context.Background())
	spec := testSpec()
	want := referenceCSV(t, spec)

	j, err := m.Submit(spec, "client-1")
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if st.Completed != spec.Cells() || st.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", st.Completed, st.Failed, spec.Cells())
	}
	f, err := m.ResultCSV(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(want)+64)
	n, _ := f.Read(got)
	if !bytes.Equal(got[:n], want) {
		t.Fatalf("daemon CSV differs from direct execution:\n got: %q\nwant: %q", got[:n], want)
	}
}

// Streaming delivers one cell event per cell plus a terminal summary,
// to followers that subscribe before, during and after the run.
func TestStreamEvents(t *testing.T) {
	m := newTestManager(t, Options{})
	defer m.Shutdown(context.Background())
	spec := testSpec(1, 2, 3)
	j, err := m.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}

	collect := func() []Event {
		var evs []Event
		if err := j.Stream(context.Background(), func(e Event) error {
			evs = append(evs, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	live := collect() // follows until terminal
	waitTerminal(t, j)
	replay := collect() // replays a finished job

	for name, evs := range map[string][]Event{"live": live, "replay": replay} {
		cells := 0
		for _, e := range evs {
			if e.Type == "cell" {
				cells++
			}
		}
		if cells != spec.Cells() {
			t.Fatalf("%s stream saw %d cell events, want %d", name, cells, spec.Cells())
		}
		last := evs[len(evs)-1]
		if last.Type != "done" || last.State != StateDone || last.Completed != spec.Cells() {
			t.Fatalf("%s stream terminal event = %+v", name, last)
		}
	}
}

// Admission bounds: queue overflow, per-client limits and the cell
// budget map to their sentinel errors.
func TestAdmissionBounds(t *testing.T) {
	m := newTestManager(t, Options{MaxJobs: 1, MaxClientJobs: 1, MaxCellsPerJob: 10})
	defer m.Shutdown(context.Background())

	if _, err := m.Submit(Spec{
		Machines: []string{"baseline-sram"}, Apps: []string{"browser"},
		Seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, Accesses: 2000,
	}, ""); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized spec: err = %v, want ErrTooLarge", err)
	}

	big, err := m.Submit(testSpec(1, 2, 3, 4, 5), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec(), "bob"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow: err = %v, want ErrOverloaded", err)
	}
	waitTerminal(t, big)

	// Per-client limit needs queue headroom: two slots, same client.
	m2 := newTestManager(t, Options{MaxJobs: 4, MaxClientJobs: 1})
	defer m2.Shutdown(context.Background())
	j1, err := m2.Submit(testSpec(1, 2, 3, 4, 5, 6), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Submit(testSpec(), "alice"); !errors.Is(err, ErrClientLimit) {
		t.Fatalf("client limit: err = %v, want ErrClientLimit", err)
	}
	if _, err := m2.Submit(testSpec(9), "bob"); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
	waitTerminal(t, j1)
}

// Cancelling a running job lands it in cancelled with no result.csv,
// while its journal keeps the completed prefix.
func TestCancel(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	defer m.Shutdown(context.Background())
	seeds := make([]uint64, 40)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	spec := testSpec(seeds...)
	spec.Accesses = 50_000
	j, err := m.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one cell land, then cancel.
	if err := j.Stream(context.Background(), func(e Event) error {
		if e.Type == "cell" {
			return errors.New("stop")
		}
		return nil
	}); err == nil {
		t.Fatal("stream ended before any cell completed")
	}
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	if _, err := m.ResultCSV(j.ID()); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("ResultCSV of a cancelled job: err = %v, want ErrNotFinished", err)
	}
	entries, info, err := checkpoint.ReadFS(faultfs.OS, filepath.Join(m.opts.Root, j.ID(), journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || info.DiscardedBytes != 0 {
		t.Fatalf("cancelled job journal: %d entries, %d discarded bytes; want >0 entries, clean tail",
			len(entries), info.DiscardedBytes)
	}
}

// Graceful shutdown: admission closes, in-flight cells drain within
// the deadline, the journal has no torn tail, and the job is parked
// draining (resumable).
func TestGracefulShutdownDrains(t *testing.T) {
	root := t.TempDir()
	m := newTestManager(t, Options{Root: root, Workers: 2})
	seeds := make([]uint64, 30)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	spec := testSpec(seeds...)
	spec.Accesses = 50_000
	j, err := m.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for some progress so the drain actually has in-flight cells.
	if err := j.Stream(context.Background(), func(e Event) error {
		if e.Type == "cell" {
			return errors.New("stop")
		}
		return nil
	}); err == nil {
		t.Fatal("no progress before shutdown")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("drain missed its deadline: %v", err)
	}
	if time.Since(start) > 25*time.Second {
		t.Fatalf("drain took %v", time.Since(start))
	}
	if _, err := m.Submit(testSpec(), ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}

	st := j.Status()
	if st.State != StateDraining {
		t.Fatalf("job state after shutdown = %s, want draining", st.State)
	}
	// The journal must pass recovery with zero discarded bytes: a
	// graceful drain never tears the tail.
	entries, info, err := checkpoint.ReadFS(faultfs.OS, filepath.Join(root, j.ID(), journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if info.DiscardedBytes != 0 {
		t.Fatalf("graceful shutdown left %d torn bytes", info.DiscardedBytes)
	}
	if len(entries) == 0 {
		t.Fatal("no cells journaled before shutdown")
	}
	// And the persisted state is resumable.
	var ps persistentState
	if err := readJSON(faultfs.OS, filepath.Join(root, j.ID(), stateFile), &ps); err != nil {
		t.Fatal(err)
	}
	if ps.State != StateDraining {
		t.Fatalf("persisted state = %s, want draining", ps.State)
	}
}

// Fairness: a small job submitted while a large one is chewing through
// the shared slots completes long before the large one — round-robin,
// not FIFO starvation.
func TestSmallJobNotStarvedByLargeJob(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2})
	defer m.Shutdown(context.Background())

	seeds := make([]uint64, 60)
	for i := range seeds {
		seeds[i] = uint64(i + 100)
	}
	bigSpec := Spec{Machines: []string{"baseline-sram"}, Apps: []string{"browser"},
		Seeds: seeds, Accesses: 50_000}
	big, err := m.Submit(bigSpec, "")
	if err != nil {
		t.Fatal(err)
	}
	// Let the big job occupy the slots first.
	if err := big.Stream(context.Background(), func(e Event) error {
		if e.Type == "cell" {
			return errors.New("progress")
		}
		return nil
	}); err == nil {
		t.Fatal("big job made no progress")
	}

	small, err := m.Submit(Spec{Machines: []string{"sp-mr"}, Apps: []string{"music"},
		Seeds: []uint64{1, 2}, Accesses: 2000}, "")
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, small)
	if st.State != StateDone {
		t.Fatalf("small job state = %s (%s)", st.State, st.Error)
	}
	bigSt := big.Status()
	if bigSt.State.Terminal() {
		t.Fatalf("big job already %s when the small one finished — fairness unprovable, shrink the small job or grow the big one", bigSt.State)
	}
	if bigSt.Completed >= len(seeds) {
		t.Fatalf("big job completed all %d cells before the small job finished", bigSt.Completed)
	}
	if err := m.Cancel(big.ID()); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, big)
}

// Stats reflect completed cells and the gate's occupancy.
func TestStatsCounters(t *testing.T) {
	m := newTestManager(t, Options{})
	defer m.Shutdown(context.Background())
	spec := testSpec()
	j, err := m.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	st := m.Stats()
	if st.CellsDone != uint64(spec.Cells()) {
		t.Fatalf("CellsDone = %d, want %d", st.CellsDone, spec.Cells())
	}
	if st.ByState[StateDone] != 1 {
		t.Fatalf("ByState = %v, want one done job", st.ByState)
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after completion", st.InFlight)
	}
	if st.Slots != 2 {
		t.Fatalf("Slots = %d, want 2", st.Slots)
	}
}

// A bad spec is rejected before a job exists; nothing lands on disk.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	root := t.TempDir()
	m := newTestManager(t, Options{Root: root})
	defer m.Shutdown(context.Background())
	bad := []Spec{
		{},
		{Machines: []string{"no-such-scheme.json"}, Apps: []string{"browser"}, Seeds: []uint64{1}, Accesses: 100},
		{Machines: []string{"baseline-sram"}, Apps: []string{"no-such-app"}, Seeds: []uint64{1}, Accesses: 100},
		{Machines: []string{"baseline-sram"}, Apps: []string{"browser"}, Seeds: []uint64{1}, Accesses: 100, Sample: "1/3"},
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec, ""); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected submissions left %d entries in the store", len(entries))
	}
}

// A per-cell deadline that cuts some of a job's cells still accounts
// for every cell exactly once: Completed + Failed == Total, and the
// stream holds one cell or failure event per cell, never both. Memo-
// warm cells finish under any deadline; cold 400k-access cells run past
// it and stop.
func TestTimeoutAccountsForEveryCellOnce(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, Timeout: 10 * time.Millisecond})
	defer m.Shutdown(context.Background())
	spec := Spec{
		Machines: []string{"baseline-sram", "sp-mr"},
		Apps:     []string{"browser", "email", "maps"},
		Seeds:    []uint64{1, 2},
		Accesses: 400_000,
	}
	p, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	warm := p.Cells[len(p.Cells)-2:]
	for _, c := range warm {
		if _, err := m.Engine().RunOneSampled(context.Background(), c, p.Accesses, p.Warmup, p.Sample); err != nil {
			t.Fatal(err)
		}
	}
	j, err := m.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if st.Completed < len(warm) || st.Failed == 0 || st.Completed+st.Failed != st.Total {
		t.Fatalf("completed=%d failed=%d total=%d; want the %d warm cells done, some cut, and every cell counted once",
			st.Completed, st.Failed, st.Total, len(warm))
	}
	seen := map[string]int{}
	if err := j.Stream(context.Background(), func(e Event) error {
		if e.Type == "cell" || e.Type == "failure" {
			seen[fmt.Sprintf("%s/%s/%d", e.Machine, e.App, e.Seed)]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Cells {
		if k := fmt.Sprintf("%s/%s/%d", c.Machine, c.App, c.Seed); seen[k] != 1 {
			t.Fatalf("cell %s has %d cell/failure events, want 1", k, seen[k])
		}
	}
}

// A failure event names its cell by plan index, as a cell event does:
// a job whose every cell fails streams one failure event per plan
// index, and the JSON of index 0's event still has its index key.
func TestFailureEventsCarryPlanIndex(t *testing.T) {
	t.Cleanup(sim.InstallChaos(&sim.Chaos{ErrorRate: 1}))
	m := newTestManager(t, Options{})
	defer m.Shutdown(context.Background())
	spec := testSpec(1, 2, 3)
	j, err := m.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateDone || st.Failed != spec.Cells() {
		t.Fatalf("state = %s, failed = %d; want done with all %d cells failed", st.State, st.Failed, spec.Cells())
	}
	seen := map[int]int{}
	if err := j.Stream(context.Background(), func(e Event) error {
		if e.Type != "failure" {
			return nil
		}
		if e.Index == nil {
			t.Errorf("failure event without an index: %+v", e)
			return nil
		}
		seen[*e.Index]++
		if *e.Index == 0 {
			b, err := json.Marshal(e)
			if err != nil {
				return err
			}
			if !strings.Contains(string(b), `"index":0`) {
				t.Errorf("index 0's failure event renders as %s, want an \"index\":0 key", b)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != spec.Cells() {
		t.Fatalf("failure event indexes %v, want exactly 0..%d", seen, spec.Cells()-1)
	}
	for i := 0; i < spec.Cells(); i++ {
		if seen[i] != 1 {
			t.Fatalf("failure event indexes %v, want each of 0..%d once", seen, spec.Cells()-1)
		}
	}
}

// DecodeSpec rejects a repeated key and names it: encoding/json alone
// keeps the last value, so this spec would run 30000 accesses per cell.
func TestDecodeSpecRejectsRepeatedKey(t *testing.T) {
	doc := `{"machines": ["baseline-sram"], "apps": ["browser"], "seeds": [1], "accesses": 20000, "accesses": 30000}`
	if _, err := DecodeSpec(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), `repeated key "accesses"`) {
		t.Fatalf("spec with accesses given twice: err = %v, want a repeated-key error", err)
	}
}
