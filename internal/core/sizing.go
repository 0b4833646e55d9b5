package core

import (
	"fmt"
	"sort"

	"mobilecache/internal/cache"
	"mobilecache/internal/trace"
)

// This file implements the paper's static partition sizing procedure:
// replay the (L2-level) access stream of each domain through isolated
// caches of candidate sizes, then pick the smallest segment sizes whose
// combined miss rate stays within a tolerance of the unified baseline.
// Because partitioning removes cross-domain interference, the chosen
// total is typically well below the baseline capacity — that shrink is
// where the static design's energy saving comes from.

// SizingPoint is one (size, miss rate) sample of a domain's curve.
type SizingPoint struct {
	SizeBytes uint64
	MissRate  float64
	Misses    uint64
	Accesses  uint64
}

// MissRateForSize replays only dom's accesses from recs through an
// isolated cache of the given geometry and returns its miss statistics.
// recs must be an L2-level stream (such as sim.L2Stream's) for the
// numbers to mean what the paper's do.
func MissRateForSize(recs []trace.Access, dom trace.Domain, sizeBytes uint64, ways, blockBytes int, policy cache.PolicyKind) (SizingPoint, error) {
	c, err := cache.New(cache.Config{
		Name:      fmt.Sprintf("sizing-%s-%d", dom, sizeBytes),
		SizeBytes: sizeBytes, Ways: ways, BlockBytes: blockBytes, Policy: policy,
	})
	if err != nil {
		return SizingPoint{}, err
	}
	now := uint64(0)
	for _, a := range recs {
		if a.Domain != dom {
			continue
		}
		now++
		c.Access(a.Addr, a.Op.IsWrite(), dom, now)
	}
	st := c.Stats()
	return SizingPoint{
		SizeBytes: sizeBytes,
		MissRate:  st.DomainMissRate(dom),
		Misses:    st.Misses[dom],
		Accesses:  st.Accesses[dom],
	}, nil
}

// SweepSegmentSizes evaluates a domain's miss curve across candidate
// sizes (the data behind experiment E3). Candidates are evaluated in
// ascending order; invalid geometries return an error.
func SweepSegmentSizes(recs []trace.Access, dom trace.Domain, sizes []uint64, ways, blockBytes int, policy cache.PolicyKind) ([]SizingPoint, error) {
	sorted := append([]uint64(nil), sizes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]SizingPoint, 0, len(sorted))
	for _, size := range sorted {
		pt, err := MissRateForSize(recs, dom, size, ways, blockBytes, policy)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// StaticSizing is the outcome of the static partition sizing search.
type StaticSizing struct {
	// UserSize and KernelSize are the chosen segment capacities.
	UserSize   uint64
	KernelSize uint64
	// UserPoint and KernelPoint are the measured miss statistics at
	// the chosen sizes.
	UserPoint   SizingPoint
	KernelPoint SizingPoint
	// BaselineMissRate is the unified cache's overall miss rate the
	// search had to stay close to.
	BaselineMissRate float64
	// CombinedMissRate is the partition's overall miss rate estimate
	// (weighted by each domain's access count).
	CombinedMissRate float64
	// UserCurve and KernelCurve are the full sweeps, for reporting.
	UserCurve   []SizingPoint
	KernelCurve []SizingPoint
}

// TotalSize is the summed segment capacity.
func (s StaticSizing) TotalSize() uint64 { return s.UserSize + s.KernelSize }

// ChooseStaticSizes runs the paper's sizing procedure: measure the
// unified baseline's miss rate on recs, sweep per-domain segment
// sizes, and pick the smallest (user, kernel) sizes whose combined
// miss rate is at most baseline + tolerance. If no combination
// qualifies, the largest candidates are returned.
func ChooseStaticSizes(recs []trace.Access, baseline SegmentConfig, candidates []uint64, tolerance float64) (StaticSizing, error) {
	if len(candidates) == 0 {
		return StaticSizing{}, fmt.Errorf("core: no candidate sizes")
	}
	if tolerance < 0 {
		return StaticSizing{}, fmt.Errorf("core: negative tolerance %g", tolerance)
	}

	// Baseline: unified cache, both domains, same stream.
	base, err := cache.New(cache.Config{
		Name: "sizing-baseline", SizeBytes: baseline.SizeBytes, Ways: baseline.Ways,
		BlockBytes: baseline.BlockBytes, Policy: baseline.Policy,
	})
	if err != nil {
		return StaticSizing{}, err
	}
	now := uint64(0)
	for _, a := range recs {
		now++
		base.Access(a.Addr, a.Op.IsWrite(), a.Domain, now)
	}
	bst := base.Stats()
	baseMiss := bst.MissRate()

	userCurve, err := SweepSegmentSizes(recs, trace.User, candidates, baseline.Ways, baseline.BlockBytes, baseline.Policy)
	if err != nil {
		return StaticSizing{}, err
	}
	kernelCurve, err := SweepSegmentSizes(recs, trace.Kernel, candidates, baseline.Ways, baseline.BlockBytes, baseline.Policy)
	if err != nil {
		return StaticSizing{}, err
	}

	total := float64(bst.TotalAccesses())
	best := StaticSizing{
		UserSize: userCurve[len(userCurve)-1].SizeBytes, KernelSize: kernelCurve[len(kernelCurve)-1].SizeBytes,
		UserPoint: userCurve[len(userCurve)-1], KernelPoint: kernelCurve[len(kernelCurve)-1],
		BaselineMissRate: baseMiss,
		UserCurve:        userCurve, KernelCurve: kernelCurve,
	}
	best.CombinedMissRate = combinedMiss(best.UserPoint, best.KernelPoint, total)
	found := false
	for _, up := range userCurve {
		for _, kp := range kernelCurve {
			cm := combinedMiss(up, kp, total)
			if cm > baseMiss+tolerance {
				continue
			}
			cand := up.SizeBytes + kp.SizeBytes
			if !found || cand < best.TotalSize() ||
				(cand == best.TotalSize() && cm < best.CombinedMissRate) {
				best.UserSize, best.KernelSize = up.SizeBytes, kp.SizeBytes
				best.UserPoint, best.KernelPoint = up, kp
				best.CombinedMissRate = cm
				found = true
			}
		}
	}
	return best, nil
}

func combinedMiss(up, kp SizingPoint, totalAccesses float64) float64 {
	if totalAccesses == 0 {
		return 0
	}
	return (float64(up.Misses) + float64(kp.Misses)) / totalAccesses
}
