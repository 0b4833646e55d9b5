// The replay benchmark: one sweep-shared trace's work as production
// runs it, measured per simulated access (BenchmarkReplay).
// make profile-replay profiles it; the repository benchmark under
// bench/ is the end-to-end and per-layer measurement harness.
package mobilecache

import (
	"context"
	"testing"

	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// replayChunk is the trace length each replay runs; large
// enough that per-run costs amortize against the per-access path.
const replayChunk = 200_000

// BenchmarkReplay runs the seven standard machines on one trace
// through sim.Run on a fresh arena per iteration: the generator and
// the L1 front stage run once, building the front output the arena
// stores, and each machine's back stage replays it. ns/access divides
// the wall time by the accesses the seven machines simulate.
func BenchmarkReplay(b *testing.B) {
	machines := sim.StandardMachines()
	prof := workload.Profiles()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := tracestore.New(0)
		for _, cfg := range machines {
			if _, err := sim.Run(context.Background(), store, cfg, prof, 1, 0, replayChunk, sample.Spec{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(machines)*replayChunk), "ns/access")
}
