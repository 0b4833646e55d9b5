package sim

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// Chaos is a test-only hook that makes Run misbehave at a configurable
// cell rate — forced panics and error returns — so the parallel run
// harness (internal/runner, cmd/mcsweep) can prove it contains
// failures instead of letting one bad cell kill a sweep. Draws are a
// pure function of (chaos seed, machine, app, workload seed), so a
// given configuration fails the same cells every run regardless of
// scheduling.
//
// Rates are per-cell probabilities evaluated in order: panic, then
// error; their sum should stay <= 1.
type Chaos struct {
	// PanicRate is the fraction of cells whose run panics.
	PanicRate float64
	// ErrorRate is the fraction of cells whose run returns an error.
	ErrorRate float64
	// Seed drives the deterministic per-cell draws.
	Seed uint64
}

// installed holds the active chaos configuration; nil = no injection.
var installed atomic.Pointer[Chaos]

// InstallChaos activates failure injection for every subsequent Run in
// this process and returns a restore function that removes it. Tests
// must call the restore function (typically via t.Cleanup) — chaos is
// process-global.
func InstallChaos(c *Chaos) (restore func()) {
	prev := installed.Swap(c)
	return func() { installed.Store(prev) }
}

// draw maps a cell identity to a uniform [0,1) value. The FNV digest
// is finalized through a splitmix64 mixer: FNV-1a alone diffuses the
// last input bytes only into the low bits, and the draw uses the high
// ones.
func (c *Chaos) draw(machine, app string, seed uint64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", c.Seed, machine, app, seed)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// enter runs the chaos decision for one cell; called on entry to Run.
// It may panic or return an error.
func (c *Chaos) enter(machine, app string, seed uint64) error {
	u := c.draw(machine, app, seed)
	cell := fmt.Sprintf("%s|%s|%d", machine, app, seed)
	switch {
	case u < c.PanicRate:
		panic(fmt.Sprintf("chaos: injected panic in %s", cell))
	case u < c.PanicRate+c.ErrorRate:
		return fmt.Errorf("chaos: injected error in %s", cell)
	}
	return nil
}

// chaosEnter fires the installed chaos configuration, if any.
func chaosEnter(machine, app string, seed uint64) error {
	if c := installed.Load(); c != nil {
		return c.enter(machine, app, seed)
	}
	return nil
}
