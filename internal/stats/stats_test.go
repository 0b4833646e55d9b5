package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanKnownValues(t *testing.T) {
	var m Mean
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Observe(x)
	}
	if m.n != 8 {
		t.Fatalf("count = %d, want 8", m.n)
	}
	if m.Value() != 5 {
		t.Fatalf("mean = %g, want 5", m.Value())
	}
	if m.StdDev() != 2 {
		t.Fatalf("stddev = %g, want 2", m.StdDev())
	}
}

func TestMeanEmptyAndReset(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.Variance() != 0 {
		t.Fatal("empty mean should be zero")
	}
	m.Observe(10)
	if m.Value() != 10 || m.Variance() != 0 {
		t.Fatalf("one sample: mean %g variance %g, want 10 and 0", m.Value(), m.Variance())
	}
	m = Mean{}
	if m.n != 0 || m.Value() != 0 {
		t.Fatal("reset mean should be zero")
	}
}

func TestMeanMatchesNaive(t *testing.T) {
	// Property: Welford mean equals the naive sum/n within float tolerance.
	f := func(xs []float64) bool {
		var m Mean
		sum := 0.0
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			m.Observe(x)
			sum += x
			n++
		}
		if n == 0 {
			return m.n == 0
		}
		naive := sum / float64(n)
		return math.Abs(m.Value()-naive) <= 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2,8) = %g, want 4", g)
	}
	if g := GeoMean([]float64{1, 1, 1}); math.Abs(g-1) > 1e-12 {
		t.Fatalf("geomean(1,1,1) = %g, want 1", g)
	}
	if g := GeoMean([]float64{0, -3}); g != 0 {
		t.Fatalf("geomean of non-positive = %g, want 0", g)
	}
	// Skips non-positive entries.
	if g := GeoMean([]float64{0, 4}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(0,4) = %g, want 4", g)
	}
}

func TestGeoMeanScaleInvariance(t *testing.T) {
	// Property: GeoMean(k*xs) == k*GeoMean(xs) for positive k and xs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		scaled := make([]float64, n)
		k := 0.5 + rng.Float64()*10
		for i := range xs {
			xs[i] = 0.01 + rng.Float64()*100
			scaled[i] = xs[i] * k
		}
		a, b := GeoMean(xs)*k, GeoMean(scaled)
		return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
