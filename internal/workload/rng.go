// Package workload synthesizes memory-access traces that statistically
// resemble the interactive smartphone applications the paper evaluates
// (browser, email, maps, games, ...). The real study traced Android
// apps under gem5 full-system simulation; those traces are not
// available, so this package is the documented substitution: each app
// profile fixes the stream statistics the paper's mechanisms depend on
// — the kernel share of accesses, per-domain working-set sizes and
// reuse behaviour, write intensity, and the user/kernel phase structure
// created by system calls and interrupt handling.
package workload

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64*). Determinism matters here: every experiment in the
// repository must regenerate the identical trace from a seed so that
// results are reproducible across runs and machines.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed; a zero seed is remapped
// to a fixed non-zero constant because the xorshift state must never
// be zero.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// geometric samples a geometric distribution with a fixed mean
// (support {1, 2, ...}) by inverting its CDF. The inverse's
// denominator log(1-1/mean) is a constant of the distribution, so it is
// computed once here and a draw pays a single Log.
type geometric struct {
	logQ float64 // log(1 - 1/mean)
	one  bool    // mean <= 1: every draw is 1 and consumes no randomness
}

// newGeometric builds a sampler whose draws have mean approximately
// mean; a mean of 1 or less degenerates to the constant 1.
func newGeometric(mean float64) geometric {
	if mean <= 1 {
		return geometric{one: true}
	}
	return geometric{logQ: math.Log(1 - 1/mean)}
}

// Sample draws one value using r.
func (g geometric) Sample(r *RNG) int {
	if g.one {
		return 1
	}
	u := r.Float64()
	k := int(math.Ceil(math.Log(1-u) / g.logQ))
	if k < 1 {
		k = 1
	}
	return k
}

// fork derives an independent generator whose stream does not overlap
// with the parent's in practice (distinct multiplier-mixed state).
func (r *RNG) fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1342543de82ef95)
}

// Zipf samples ranks in [0, n) following a zipfian distribution with
// exponent s, using Chlebus's approximate inverse-CDF method. Zipfian
// reuse is the standard model for cache-resident working sets.
type Zipf struct {
	n         int
	s         float64
	hInt      float64 // generalized harmonic normalizer H(n, s)
	oneMinusS float64 // 1 - s
	exp       float64 // 1/(1-s), the CDF inverse's power
}

// NewZipf builds a zipfian sampler over n items with skew s (s=0 is
// uniform; s around 0.8-1.2 matches measured cache streams). It panics
// if n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("workload: Zipf with non-positive population")
	}
	if s < 0 {
		panic("workload: Zipf with negative skew")
	}
	z := &Zipf{n: n, s: s, oneMinusS: 1 - s}
	z.hInt = harmonic(n, s)
	z.exp = 1 / z.oneMinusS
	return z
}

func harmonic(n int, s float64) float64 {
	// For large n use the integral approximation to keep construction
	// O(1); for small n compute exactly.
	if n <= 4096 {
		h := 0.0
		for k := 1; k <= n; k++ {
			h += math.Pow(float64(k), -s)
		}
		return h
	}
	if s == 1 {
		return math.Log(float64(n)) + 0.5772156649 + 1/(2*float64(n))
	}
	return (math.Pow(float64(n), 1-s) - 1) / (1 - s) * 1.0
}

// Sample draws a rank in [0, n); rank 0 is the most popular.
func (z *Zipf) Sample(r *RNG) int {
	if z.s == 0 {
		return r.Intn(z.n)
	}
	u := r.Float64() * z.hInt
	// Invert the integral approximation of the CDF.
	var k float64
	if z.s == 1 {
		k = math.Exp(u) - 1
	} else {
		k = math.Pow(u*z.oneMinusS+1, z.exp) - 1
	}
	i := int(k)
	if i < 0 {
		i = 0
	}
	if i >= z.n {
		i = z.n - 1
	}
	return i
}
