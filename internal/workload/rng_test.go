package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 90 {
		t.Fatalf("zero-seed RNG produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestRNGIntnRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestRNGFloat64Uniformish(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniform draws = %g, want ~0.5", mean)
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(13)
	const target = 20.0
	g := newGeometric(target)
	sum := 0
	const n = 200000
	for i := 0; i < n; i++ {
		k := g.Sample(r)
		if k < 1 {
			t.Fatalf("geometric sample %d < 1", k)
		}
		sum += k
	}
	mean := float64(sum) / n
	if math.Abs(mean-target)/target > 0.05 {
		t.Fatalf("geometric mean = %g, want ~%g", mean, target)
	}
}

func TestRNGGeometricDegenerate(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 100; i++ {
		if k := newGeometric(0.5).Sample(r); k != 1 {
			t.Fatalf("Geometric(0.5) = %d, want 1", k)
		}
		if k := newGeometric(1).Sample(r); k != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", k)
		}
	}
	if r.state != NewRNG(17).state {
		t.Fatal("degenerate geometric draws consumed randomness")
	}
}

// refGeometric is the per-draw formula the precomputed geometric
// replaced, kept as its reference: ceil(log(1-u)/log(1-1/mean)),
// computing both logs on every call.
func refGeometric(r *RNG, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	u := r.Float64()
	k := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if k < 1 {
		k = 1
	}
	return k
}

// TestGeometricMatchesReference: the precomputed sampler draws the
// reference's exact values and consumes exactly its randomness, for
// every mean the standard profiles use and for the edge means:
// degenerate, barely above 1, so large that 1-1/mean rounds to 1,
// infinite, and NaN.
func TestGeometricMatchesReference(t *testing.T) {
	means := []float64{-1, 0, 0.5, 1, math.Nextafter(1, 2), 1.5, 2, 20, 1e17, math.Inf(1), math.NaN()}
	for _, p := range Profiles() {
		means = append(means, p.UserBurstMean, p.kernelBurstMean(), p.GapMean)
	}
	for _, mean := range means {
		g := newGeometric(mean)
		got, want := NewRNG(uint64(math.Float64bits(mean))), NewRNG(uint64(math.Float64bits(mean)))
		for i := 0; i < 20000; i++ {
			if k, w := g.Sample(got), refGeometric(want, mean); k != w {
				t.Fatalf("mean %g draw %d: got %d, reference %d", mean, i, k, w)
			}
			if got.state != want.state {
				t.Fatalf("mean %g draw %d: RNG state diverged from the reference", mean, i)
			}
		}
	}
}

func TestRNGFork(t *testing.T) {
	parent := NewRNG(23)
	child := parent.fork()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked stream matched parent %d/1000 times", same)
	}
}

func TestZipfRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16, sRaw uint8) bool {
		n := int(nRaw%5000) + 1
		s := float64(sRaw%30) / 10 // 0.0 .. 2.9
		z := NewZipf(n, s)
		r := NewRNG(seed)
		for i := 0; i < 30; i++ {
			v := z.Sample(r)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	const n = 1024
	r := NewRNG(31)
	z := NewZipf(n, 1.0)
	top := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if z.Sample(r) < n/16 {
			top++
		}
	}
	frac := float64(top) / draws
	// With s=1, the top 1/16 of ranks should hold far more than 1/16
	// of the mass.
	if frac < 0.3 {
		t.Fatalf("top-1/16 mass = %g, want >= 0.3 for skew 1.0", frac)
	}
}

func TestZipfUniformWhenSkewZero(t *testing.T) {
	const n = 64
	r := NewRNG(37)
	z := NewZipf(n, 0)
	counts := make([]int, n)
	const draws = 64000
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	for i, c := range counts {
		if c < draws/n/2 || c > draws/n*2 {
			t.Fatalf("rank %d drawn %d times, want ~%d", i, c, draws/n)
		}
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-5, 1}, {10, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d,%g) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(tc.n, tc.s)
		}()
	}
}
