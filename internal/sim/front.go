package sim

import (
	"fmt"

	"mobilecache/internal/config"
	"mobilecache/internal/cpu"
	"mobilecache/internal/mem"
	"mobilecache/internal/sample"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// This file shares the hierarchy's front stage across the machines of
// a sweep. The L1s never see the L2 (see mem/frame.go), so the
// L2-bound event stream a trace produces depends on the trace and the
// front key alone, and every machine with the same front key replays
// the same stored output through its own back stage. The seven
// standard machines share one key, so a sweep runs the L1 stage once
// per trace instead of once per machine.

// frontEntry is the arena payload of a shared front stage: its output,
// and for a sampled machine the filter's statistics over the stream it
// was built from (which scale the report; see finishSampled).
type frontEntry struct {
	out *mem.FrontOutput
	st  sample.Stats
}

// SizeBytes is what the arena charges for the entry.
func (e *frontEntry) SizeBytes() int64 { return e.out.SizeBytes() }

// frontKey is the arena variant tag of m's front stage output when its
// replay warms up on warm records. It names everything the output
// depends on besides the trace:
//   - the L1I and L1D geometry;
//   - the prefetcher;
//   - the sampling spec (the selector's block size is the L1s' block
//     size, which set sampling requires to be common to every level);
//   - the idle cadence, as compressed under sampling, and the warmup
//     split, which together with the fixed leakage-sync cadence decide
//     where the replay cuts its frames.
//
// Nothing about the L2, DRAM or the idle stretch's length enters it.
func frontKey(m *Machine, warm uint64) string {
	c := m.Config
	spec := "exact"
	if m.Sample != nil {
		spec = "sample:" + m.Sample.Spec().String()
	}
	l1 := func(g config.L1) string { return fmt.Sprintf("%dKB/%dw/%dB", g.SizeKB, g.Ways, g.BlockBytes) }
	return fmt.Sprintf("front:l1i=%s:l1d=%s:prefetch=%t:%s:idle=%d:warm=%d",
		l1(c.L1I), l1(c.L1D), c.Prefetch, spec, cpuConfig(c, m.factor()).IdleEvery, warm)
}

// sharedFront returns the front stage output m's replay of (prof,
// seed, accesses) reads when it warms up on warm records, from the
// arena's derived entries: the first machine with m's front key builds
// it, running the generator's stream (for a sampled machine filtered
// live) through a fresh front stage in the frames runTrace or runWarm
// cuts, and every later one reads it back. The entry carries the
// filter's statistics with the output. The build runs to completion.
func sharedFront(store *tracestore.Store, m *Machine, prof workload.Profile, seed uint64, accesses int, warm uint64) (*mem.FrontOutput, sample.Stats, error) {
	v, err := store.Derive(prof, seed, accesses, frontKey(m, warm), func() (any, error) {
		src, live, err := source(m, prof, seed, accesses)
		if err != nil {
			return nil, err
		}
		f, err := mem.NewFront(m.Config.L1I.L1Config("L1I"), m.Config.L1D.L1Config("L1D"))
		if err != nil {
			return nil, err
		}
		setFront(f, m.Config, m.Sample)
		cfg := cpuConfig(m.Config, m.factor())
		out := mem.NewFrontOutput(f)
		if warm > 0 {
			cpu.RecordFront(cfg, f, src, warm, out)
		}
		cpu.RecordFront(cfg, f, src, 0, out)
		e := &frontEntry{out: out}
		if live != nil {
			e.st = live.Stats()
		}
		return e, nil
	})
	if err != nil {
		return nil, sample.Stats{}, err
	}
	e := v.(*frontEntry)
	return e.out, e.st, nil
}

// L2Stream returns the L2-level stream of cfg's front stage over the
// first accesses records of (prof, seed), exact and cold: the accesses
// such a run sends its L2, in order. It reads the stored front output
// (building it if the arena lacks it) and turns each event into a
// record: a Load for a demand or prefetch fill and a Store for a dirty
// L1 writeback, under the event's domain. Only the front stage's
// fields of cfg matter, so no machine is built: sharedFront reads the
// config and the selector of the one it is given, and an exact one has
// none.
func L2Stream(store *tracestore.Store, cfg config.Machine, prof workload.Profile, seed uint64, accesses int) ([]trace.Access, error) {
	out, _, err := sharedFront(store, &Machine{Config: cfg}, prof, seed, accesses, 0)
	if err != nil {
		return nil, err
	}
	var recs []trace.Access
	var ff mem.FrontFrame
	for r := out.Reader(); r.Next(&ff); {
		for _, e := range ff.Events {
			op := trace.Load
			if e.Kind == mem.Writeback {
				op = trace.Store
			}
			recs = append(recs, trace.Access{Addr: e.Addr, Op: op, Domain: e.Dom})
		}
	}
	return recs, nil
}
