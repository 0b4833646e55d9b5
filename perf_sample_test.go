// The set-sampled replay benchmark: replaying a packed trace through a
// sampled machine should cost close to 1/factor of the full replay
// (BenchmarkSampledReplay sweeps factors 1..16).
package mobilecache

import (
	"fmt"
	"testing"

	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// benchSampledReplay measures the per-access cost of replaying one
// packed trace through a machine sampled at the given factor. The
// denominator is raw trace records consumed (not post-filter records),
// so ns/op across factors are directly comparable: a perfect sampler
// would show ns/op shrinking linearly with the factor.
func benchSampledReplay(b *testing.B, spec sample.Spec) {
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
	m, err := sim.BuildSampled(cfg, spec)
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
		if _, err := sim.RunSampledTrace(m, "bench", &cur, uint64(n)); err != nil {
			b.Fatal(err)
		}
		done += n
	}
}

// BenchmarkSampledReplay sweeps the sampling factor; ns/op is per raw
// trace record, so factor=1/8 should land near an eighth of factor=1/1.
func BenchmarkSampledReplay(b *testing.B) {
	for _, f := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("1of%d", f), func(b *testing.B) {
			benchSampledReplay(b, sample.Spec{Factor: f})
		})
	}
}
