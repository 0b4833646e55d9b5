// Package runner is the fault-containing parallel executor behind
// bulk sweeps: it runs (machine, app, seed) cells on a bounded worker
// pool with per-cell deadlines, panic isolation and graceful
// degradation — a failed cell becomes a structured RunError in a
// failure manifest while its siblings complete, so a multi-hour sweep
// survives one bad cell.
//
// Each cell runs exactly once, directly in its worker goroutine. Cells
// are deterministic, so a failed cell would fail the same way again:
// nothing is retried. A deadline or cancellation reaches a cell only
// through its context, and the pool always waits for the cell to
// return, so no cell outlives Run or escapes the worker bound.
//
// Determinism: outcomes are collected into a slice indexed by the
// input cell order, so a caller that emits results in that order
// produces byte-identical output regardless of worker count or
// scheduling.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Cell identifies one unit of sweep work.
type Cell struct {
	Machine string
	App     string
	Seed    uint64
	// Index is the cell's slot in the caller's own list. The pool does
	// not read it; it lets a cell function find its slot even when a
	// list repeats a (machine, app, seed) cell.
	Index int
}

// String renders the cell identity for error messages.
func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/seed=%d", c.Machine, c.App, c.Seed)
}

// RunError records one cell's failure with its identity, so a sweep's
// failure manifest can name exactly what was lost.
type RunError struct {
	Cell Cell
	// Panicked reports whether the cell panicked; Stack then holds the
	// recovered goroutine stack.
	Panicked bool
	Stack    string
	// Err is the underlying failure (the recovered panic value wrapped
	// as an error, the cell's returned error, or a context error).
	Err error
}

// Error implements error.
func (e *RunError) Error() string {
	kind := "failed"
	if e.Panicked {
		kind = "panicked"
	}
	return fmt.Sprintf("cell %s %s: %v", e.Cell, kind, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// Gate admits cells to execution slots shared beyond one pool. A pool
// given a Gate acquires one slot per cell before the cell runs and
// releases it when the cell finishes, so several concurrently running
// pools — the sweep daemon runs one per job over one machine-wide slot
// set — are bounded and scheduled together.
// Acquire must honor ctx: when the context is cancelled while waiting
// for a slot, it returns the context's error and the cell is recorded
// as a cancellation casualty, never silently skipped.
type Gate interface {
	Acquire(ctx context.Context) error
	Release()
}

// Config bounds and shapes a pool run.
type Config struct {
	// Workers is the pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// Timeout is the per-cell deadline; 0 disables it. It is the
	// deadline of the context the cell function receives.
	Timeout time.Duration
	// KeepGoing records failures and lets sibling cells complete;
	// otherwise the first failure cancels the rest of the run.
	KeepGoing bool
	// OnFailure, when non-nil, is called from the worker goroutine the
	// moment a cell fails — before sibling cells finish — so failures
	// can be persisted incrementally instead of only in the end-of-sweep
	// manifest. It may be called concurrently
	// from multiple workers and must be safe for that. Cells cancelled
	// before dispatch do not fire it.
	OnFailure func(*RunError)
	// Gate, when non-nil, is acquired once per cell before it runs and
	// released when it finishes. It is how multiple pools share one
	// bounded slot set (see Gate); a nil Gate admits every dispatched
	// cell immediately.
	Gate Gate
}

// Func computes one cell. It must respect ctx: the pool waits for it
// to return, so a cell that ignores its context runs past its deadline
// and delays cancellation. Panics are recovered and contained by the
// pool.
type Func[T any] func(ctx context.Context, c Cell) (T, error)

// Outcome is one cell's result: either Value, or a non-nil Err.
type Outcome[T any] struct {
	Cell  Cell
	Value T
	Err   *RunError
}

// Run executes cells on a bounded worker pool and returns one outcome
// per cell, in input order.
//
//   - KeepGoing: every cell runs; failures land in their outcomes and
//     the returned error is nil (inspect outcomes / BuildManifest).
//   - Not KeepGoing: the first failure cancels the pool and is
//     returned; cells that never ran carry a context.Canceled outcome.
//   - If ctx is cancelled, Run drains its workers and returns ctx.Err().
func Run[T any](ctx context.Context, cfg Config, cells []Cell, fn Func[T]) ([]Outcome[T], error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	outcomes := make([]Outcome[T], len(cells))
	for i, c := range cells {
		outcomes[i] = Outcome[T]{Cell: c}
	}
	if len(cells) == 0 {
		return outcomes, ctx.Err()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				outcomes[i] = runCell(runCtx, cfg, cells[i], fn)
				if outcomes[i].Err != nil {
					if cfg.OnFailure != nil {
						cfg.OnFailure(outcomes[i].Err)
					}
					if !cfg.KeepGoing {
						cancel()
					}
				}
			}
		}()
	}
	next := len(cells)
feed:
	for i := range cells {
		select {
		case idxCh <- i:
		case <-runCtx.Done():
			next = i
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	// Cells never dispatched are cancellation casualties, not successes.
	for i := next; i < len(cells); i++ {
		outcomes[i].Err = &RunError{Cell: cells[i], Err: context.Canceled}
	}

	if err := ctx.Err(); err != nil {
		return outcomes, err
	}
	if !cfg.KeepGoing {
		// Deterministically report the lowest-index failure that is not
		// itself a cancellation casualty.
		for i := range outcomes {
			if e := outcomes[i].Err; e != nil && !errors.Is(e.Err, context.Canceled) {
				return outcomes, e
			}
		}
		// All failures (if any) were cancellation casualties of a
		// failure we somehow can't see; fall through to success.
		for i := range outcomes {
			if outcomes[i].Err != nil {
				return outcomes, outcomes[i].Err
			}
		}
	}
	return outcomes, nil
}

// runCell runs one cell exactly once: inside the (optional) shared
// admission gate's slot, under the per-cell deadline, with a panic
// recovered into a RunError that keeps its stack. A cancellation while
// waiting for a slot, or before the cell starts, becomes an ordinary
// cancellation outcome, so callers see the cell as lost to the
// shutdown rather than mysteriously absent.
func runCell[T any](ctx context.Context, cfg Config, c Cell, fn Func[T]) (out Outcome[T]) {
	out.Cell = c
	if cfg.Gate != nil {
		if err := cfg.Gate.Acquire(ctx); err != nil {
			out.Err = &RunError{Cell: c, Err: err}
			return out
		}
		defer cfg.Gate.Release()
	}
	if err := ctx.Err(); err != nil {
		out.Err = &RunError{Cell: c, Err: err}
		return out
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			out.Err = &RunError{Cell: c, Panicked: true, Stack: string(debug.Stack()), Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	v, err := fn(ctx, c)
	if err != nil {
		out.Err = &RunError{Cell: c, Err: err}
		return out
	}
	out.Value = v
	return out
}
