package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func cellsN(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Machine: fmt.Sprintf("m%d", i%3), App: fmt.Sprintf("a%d", i%4), Seed: uint64(i)}
	}
	return cells
}

func TestRunOrderedResults(t *testing.T) {
	cells := cellsN(20)
	outcomes, err := Run(context.Background(), Config{Workers: 7}, cells,
		func(_ context.Context, c Cell) (uint64, error) { return c.Seed * 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(cells) {
		t.Fatalf("outcomes = %d, want %d", len(outcomes), len(cells))
	}
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("cell %d failed: %v", i, o.Err)
		}
		if o.Cell != cells[i] || o.Value != uint64(i)*10 {
			t.Fatalf("outcome %d out of order: %+v", i, o)
		}
	}
}

// Failure containment: a panicking cell yields a RunError with its
// identity and stack, and does not abort sibling cells.
func TestPanicContainment(t *testing.T) {
	cases := []struct {
		name     string
		fail     func(c Cell) // panics or not, per cell
		panicked bool
	}{
		{"panic", func(c Cell) {
			if c.Seed == 5 {
				panic("chaos monkey")
			}
		}, true},
		{"error", func(c Cell) {}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cells := cellsN(12)
			outcomes, err := Run(context.Background(), Config{Workers: 4, KeepGoing: true}, cells,
				func(_ context.Context, c Cell) (int, error) {
					tc.fail(c)
					if !tc.panicked && c.Seed == 5 {
						return 0, errors.New("boom")
					}
					return 1, nil
				})
			if err != nil {
				t.Fatalf("keep-going run returned error: %v", err)
			}
			for i, o := range outcomes {
				if i == 5 {
					if o.Err == nil {
						t.Fatal("failing cell reported success")
					}
					if o.Err.Cell != cells[5] {
						t.Fatalf("RunError cell = %+v, want %+v", o.Err.Cell, cells[5])
					}
					if o.Err.Panicked != tc.panicked {
						t.Fatalf("Panicked = %v, want %v", o.Err.Panicked, tc.panicked)
					}
					if tc.panicked && !strings.Contains(o.Err.Stack, "runner") {
						t.Fatalf("panic stack not captured: %q", o.Err.Stack)
					}
					if tc.panicked && !strings.Contains(o.Err.Error(), "chaos monkey") {
						t.Fatalf("panic value lost: %v", o.Err)
					}
					continue
				}
				if o.Err != nil {
					t.Fatalf("sibling cell %d aborted: %v", i, o.Err)
				}
			}
		})
	}
}

func TestFirstFailureCancelsWithoutKeepGoing(t *testing.T) {
	cells := cellsN(40)
	var ran atomic.Int64
	outcomes, err := Run(context.Background(), Config{Workers: 2}, cells,
		func(ctx context.Context, c Cell) (int, error) {
			ran.Add(1)
			if c.Seed == 1 {
				return 0, errors.New("hard failure")
			}
			// Give the canceller a chance to win the race.
			select {
			case <-ctx.Done():
			case <-time.After(2 * time.Millisecond):
			}
			return 1, nil
		})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Cell.Seed != 1 {
		t.Fatalf("reported failure is %s, want seed 1", re.Cell)
	}
	// At least one trailing cell must have been skipped.
	skipped := 0
	for _, o := range outcomes {
		if o.Err != nil && errors.Is(o.Err.Err, context.Canceled) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatalf("no cells cancelled after failure (ran %d of %d)", ran.Load(), len(cells))
	}
}

// Context cancellation stops the pool promptly with no goroutine leak.
func TestCancellationDrainsPool(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Run(ctx, Config{Workers: 4}, cellsN(64),
			func(ctx context.Context, c Cell) (int, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				<-ctx.Done() // fully context-aware cell
				return 0, ctx.Err()
			})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	<-started
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not stop after cancellation")
	}
	// The workers must all drain.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after drain", before, g)
	}
}

func TestPerCellTimeout(t *testing.T) {
	cells := cellsN(3)
	outcomes, err := Run(context.Background(), Config{Workers: 3, Timeout: 20 * time.Millisecond, KeepGoing: true}, cells,
		func(ctx context.Context, c Cell) (int, error) {
			if c.Seed == 2 {
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(10 * time.Second):
				}
			}
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if outcomes[2].Err == nil || !errors.Is(outcomes[2].Err.Err, context.DeadlineExceeded) {
		t.Fatalf("slow cell outcome = %+v, want deadline exceeded", outcomes[2].Err)
	}
	if outcomes[0].Err != nil || outcomes[1].Err != nil {
		t.Fatal("fast siblings affected by slow cell")
	}
}

// The pool never abandons a cell: a cell that ignores its context and
// overruns the deadline is waited for, and its own return value is its
// outcome. So every side effect a cell makes has happened by the time
// Run returns, and matches the outcome it reports.
func TestPoolWaitsForEveryCell(t *testing.T) {
	var finished atomic.Int64
	outcomes, err := Run(context.Background(), Config{Workers: 2, Timeout: time.Millisecond, KeepGoing: true}, cellsN(4),
		func(ctx context.Context, c Cell) (int, error) {
			time.Sleep(20 * time.Millisecond) // ignores ctx on purpose
			finished.Add(1)
			if c.Seed%2 == 1 {
				return 0, ctx.Err()
			}
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := finished.Load(); got != 4 {
		t.Fatalf("Run returned with %d of 4 cells finished", got)
	}
	for i, o := range outcomes {
		if odd := i%2 == 1; odd != (o.Err != nil) {
			t.Fatalf("cell %d outcome = %+v, want the error the cell returned", i, o)
		}
		if o.Err != nil && !errors.Is(o.Err, context.DeadlineExceeded) {
			t.Fatalf("cell %d err = %v, want deadline exceeded", i, o.Err)
		}
	}
}

// Determinism: identical cells and seeds produce identical outcomes
// (and manifests) regardless of worker count — ordered collection makes
// parallelism invisible.
func TestDeterministicOutcomesAcrossWorkerCounts(t *testing.T) {
	fn := func(_ context.Context, c Cell) (string, error) {
		if c.Seed%4 == 3 {
			return "", fmt.Errorf("injected failure for %s", c)
		}
		return fmt.Sprintf("v-%s-%d", c.Machine, c.Seed), nil
	}
	type flat struct {
		Cell  Cell
		Value string
		Err   string
	}
	render := func(workers int) ([]flat, string) {
		outcomes, _ := Run(context.Background(), Config{Workers: workers, KeepGoing: true}, cellsN(24), fn)
		var fs []flat
		for _, o := range outcomes {
			f := flat{Cell: o.Cell, Value: o.Value}
			if o.Err != nil {
				f.Err = o.Err.Error()
			}
			fs = append(fs, f)
		}
		var buf bytes.Buffer
		if err := BuildManifest(outcomes).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return fs, buf.String()
	}
	f1, m1 := render(1)
	f8, m8 := render(8)
	if !reflect.DeepEqual(f1, f8) {
		t.Fatalf("outcomes differ across worker counts:\n1: %+v\n8: %+v", f1, f8)
	}
	if m1 != m8 {
		t.Fatalf("manifests differ:\n%s\n%s", m1, m8)
	}
}

func TestManifestContents(t *testing.T) {
	outcomes := []Outcome[int]{
		{Cell: Cell{Machine: "sp-mr", App: "browser", Seed: 1}, Value: 1},
		{Cell: Cell{Machine: "dp-sr", App: "music", Seed: 2},
			Err: &RunError{Cell: Cell{Machine: "dp-sr", App: "music", Seed: 2}, Panicked: true, Err: errors.New("panic: chaos")}},
	}
	m := BuildManifest(outcomes)
	if m.TotalCells != 2 || m.Succeeded != 1 || len(m.Failed) != 1 {
		t.Fatalf("manifest = %+v", m)
	}
	f := m.Failed[0]
	if f.Machine != "dp-sr" || f.App != "music" || f.Seed != 2 || !f.Panicked {
		t.Fatalf("failure entry = %+v", f)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("manifest JSON round-trip changed it:\n%+v\n%+v", m, back)
	}
}

func TestEmptyCellsAndWorkerClamp(t *testing.T) {
	outcomes, err := Run(context.Background(), Config{Workers: 99}, nil,
		func(_ context.Context, c Cell) (int, error) { return 0, nil })
	if err != nil || len(outcomes) != 0 {
		t.Fatalf("empty run: %v, %d outcomes", err, len(outcomes))
	}
}

// chanGate is a test Gate over a buffered channel: capacity = slots.
type chanGate struct {
	slots chan struct{}
	held  atomic.Int64
	max   atomic.Int64
}

func newChanGate(n int) *chanGate { return &chanGate{slots: make(chan struct{}, n)} }

func (g *chanGate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		h := g.held.Add(1)
		for {
			m := g.max.Load()
			if h <= m || g.max.CompareAndSwap(m, h) {
				break
			}
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *chanGate) Release() {
	g.held.Add(-1)
	<-g.slots
}

// A gate bounds concurrency below the pool's worker count, and every
// slot is released afterwards (panicking cells included).
func TestGateBoundsConcurrency(t *testing.T) {
	gate := newChanGate(2)
	cells := cellsN(24)
	outcomes, err := Run(context.Background(), Config{Workers: 8, KeepGoing: true, Gate: gate}, cells,
		func(_ context.Context, c Cell) (int, error) {
			time.Sleep(time.Millisecond)
			if c.Seed == 7 {
				panic("gated chaos")
			}
			return int(c.Seed), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := gate.max.Load(); got > 2 {
		t.Fatalf("gate admitted %d concurrent cells, want <= 2", got)
	}
	if got := gate.held.Load(); got != 0 {
		t.Fatalf("%d slots still held after the run (leak)", got)
	}
	failed := 0
	for _, o := range outcomes {
		if o.Err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d failures, want exactly the panicking cell", failed)
	}
}

// Cancellation while blocked in Acquire unwinds promptly: the waiting
// cells come back as cancellation casualties, not a hang.
func TestGateAcquireHonorsCancellation(t *testing.T) {
	gate := newChanGate(1)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	done := make(chan struct{})
	var outcomes []Outcome[int]
	go func() {
		defer close(done)
		outcomes, _ = Run(ctx, Config{Workers: 4, KeepGoing: true, Gate: gate}, cellsN(8),
			func(ctx context.Context, c Cell) (int, error) {
				started.Add(1)
				<-release
				return 0, nil
			})
	}()
	// Wait for the single slot to be occupied, then cancel while the
	// other workers block in Acquire.
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not unwind from a cancelled gate acquire")
	}
	cancelled := 0
	for _, o := range outcomes {
		if o.Err != nil && errors.Is(o.Err.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no cell recorded as a cancellation casualty")
	}
	if got := gate.held.Load(); got != 0 {
		t.Fatalf("%d slots still held after cancellation", got)
	}
}
