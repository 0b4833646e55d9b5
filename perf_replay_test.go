// Performance gate of the frame-batched replay kernel
// (mem.AccessFrame behind cpu.Run): every trace source decodes frames
// straight into precomputed records and the kernel replays L1 hits
// without a Lookup call, a Result struct, or any per-access stats or
// energy write. TestReplaySmoke is the CI-safe structural gate, run
// with the rest of the suite by go test ./... (and so by make check):
// replay through every frame source, and the back-only replay of a
// stored front-stage output, must stay allocation-free, and packed
// replay under a budget ~40x above the recorded steady state, so it
// catches a reintroduced per-access allocation or interface round-trip
// without ever failing on a slow or noisy runner. BENCH_PR10.json
// records the kernel's measurement.
package mobilecache

import (
	"context"
	"testing"
	"time"

	"mobilecache/internal/cpu"
	"mobilecache/internal/mem"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// replaySmokeBudgetNs is the structural ceiling for the smoke gate:
// generous enough that no healthy build on any CI runner approaches
// it (recorded steady state is ~50 ns/access on the slowest host this
// repo has seen), low enough that a per-access allocation, a decode
// regression to per-record interface calls, or an accidental
// quadratic would blow through it.
const replaySmokeBudgetNs = 2000

// TestReplaySmoke is the replay kernel's CI gate.
func TestReplaySmoke(t *testing.T) {
	const accesses = 200_000
	store := tracestore.New(0)
	prof := workload.Profiles()[0]
	tr, err := store.GetTrace(prof, 1, accesses)
	if err != nil {
		t.Fatal(err)
	}
	packed := tr.Packed
	cfg, err := sim.MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := sim.BuildSampled(cfg, sample.Spec{Factor: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The shared path replays a stored front-stage output through the
	// back stage alone, as sim.Run does for every machine of a sweep
	// after the first with its front key.
	f, err := mem.NewFront(cfg.L1I.L1Config("L1I"), cfg.L1D.L1Config("L1D"))
	if err != nil {
		t.Fatal(err)
	}
	front := mem.NewFrontOutput(f)
	cur := packed.Cursor()
	cpu.RecordFront(cpu.Config{}, f, &cur, accesses, front)

	// Allocation structure: a replay allocates O(1) per run (the report,
	// the sampling filter and its buffers), never O(accesses) or
	// O(frames). Every path replays at least ~100 frames (the 1/8
	// sampled stream keeps ~25k of the 200k records), so a budget of
	// tens of allocations fails any per-frame allocation — in a source's
	// DecodeFrame, in the CPU's adapter for plain Next sources or in the
	// stored front output's frame decoder — and a per-access one by
	// orders of magnitude.
	paths := []struct {
		name string
		run  func()
	}{
		{"packed", func() {
			cur := packed.Cursor()
			sim.RunTrace(m, "smoke", &cur, accesses)
		}},
		{"hot", func() {
			cur := trace.NewSliceCursor(tr.Records)
			sim.RunTrace(m, "smoke", &cur, accesses)
		}},
		{"sampled", func() {
			cur := packed.Cursor()
			if _, err := sim.RunSampledTrace(sampled, "smoke", &cur, accesses); err != nil {
				t.Fatal(err)
			}
		}},
		{"next", func() {
			sim.RunTrace(m, "smoke", trace.NewLimitSource(trace.NewSliceSource(tr.Records), accesses), 0)
		}},
		{"shared", func() {
			if _, err := m.CPU.RunBack(context.Background(), front.Reader(), accesses); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, p := range paths {
		allocs := testing.AllocsPerRun(3, p.run)
		t.Logf("%s replay: %.0f allocs/run", p.name, allocs)
		if allocs > 50 {
			t.Errorf("%s replay of %d accesses allocated %.0f times; per-frame or per-access allocation regression", p.name, accesses, allocs)
		}
	}

	// Throughput structure: best of three rounds against the ~40x
	// budget, so scheduler noise cannot fail a healthy build.
	best := time.Duration(1 << 62)
	for round := 0; round < 3; round++ {
		cur := packed.Cursor()
		start := time.Now()
		sim.RunTrace(m, "smoke", &cur, accesses)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	nsPerAccess := float64(best.Nanoseconds()) / float64(accesses)
	t.Logf("replay smoke: %.1f ns/access (budget %d)", nsPerAccess, replaySmokeBudgetNs)
	if nsPerAccess > replaySmokeBudgetNs {
		t.Errorf("replay at %.1f ns/access exceeds the %d ns structural budget", nsPerAccess, replaySmokeBudgetNs)
	}
}
