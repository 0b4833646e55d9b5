// The packed-replay benchmark: the zero-allocation replay hot path
// measured per simulated access (BenchmarkPackedReplay with -benchmem).
// make profile-replay profiles it; the repository benchmark under
// bench/ is the end-to-end and per-layer measurement harness.
package mobilecache

import (
	"testing"

	"mobilecache/internal/sim"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// replayChunk is the packed-trace length the replay benchmark cycles
// through; large enough that per-report costs amortize to zero against
// the per-access path.
const replayChunk = 200_000

// benchReplay measures the cached-replay hot path: machine built once,
// trace packed once, then every iteration is one simulated access
// decoded straight from the arena. This is the per-cell marginal cost
// a sweep pays after the first machine has generated the trace.
func benchReplay(b *testing.B) {
	b.ReportAllocs()
	store := tracestore.New(0)
	prof := workload.Profiles()[0]
	tr, err := store.GetTrace(prof, 1, replayChunk)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sim.MachineByName("baseline-sram")
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := b.N - done
		if n > replayChunk {
			n = replayChunk
		}
		cur := tr.Packed.Cursor()
		sim.RunTrace(m, "bench", &cur, uint64(n))
		done += n
	}
}

// BenchmarkPackedReplay is the -benchmem target for the zero-allocation
// claim: ns/op and allocs/op are per simulated access.
func BenchmarkPackedReplay(b *testing.B) { benchReplay(b) }
