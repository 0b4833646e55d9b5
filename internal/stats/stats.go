// Package stats holds the two aggregates the experiments report over
// runs: a running mean (Welford) and the geometric mean of normalized
// results. Mean is deterministic and not synchronized; each caller
// owns its own instances.
package stats

import "math"

// Mean accumulates a running arithmetic mean and variance using
// Welford's algorithm, which is numerically stable for long runs.
type Mean struct {
	n    uint64
	mean float64
	m2   float64
}

// Observe incorporates one sample.
func (m *Mean) Observe(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Value reports the running mean, or 0 with no samples.
func (m *Mean) Value() float64 { return m.mean }

// Variance reports the population variance of the samples.
func (m *Mean) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// StdDev reports the population standard deviation.
func (m *Mean) StdDev() float64 { return math.Sqrt(m.Variance()) }

// GeoMean computes the geometric mean of positive values; zero or
// negative entries are skipped (returning 0 if none remain). Geometric
// means are the standard aggregation for normalized benchmark results.
func GeoMean(values []float64) float64 {
	sum := 0.0
	n := 0
	for _, v := range values {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
