package trace

import "math/bits"

// Reuse-distance analysis: for each access, the number of *distinct*
// blocks touched since the previous access to the same block (LRU
// stack distance, block granularity). The distribution explains every
// cache's miss curve — a cache of capacity C blocks captures exactly
// the accesses with distance < C under LRU — and is how the synthetic
// workloads are validated against the footprints they claim to model.

// ReuseStats summarizes one domain's reuse behaviour.
type ReuseStats struct {
	// Accesses is the number of block references analyzed.
	Accesses uint64
	// ColdMisses is the number of first-ever block touches.
	ColdMisses uint64
	// DistinctBlocks is the footprint in blocks.
	DistinctBlocks uint64
	// Hist[i] counts re-accesses whose stack distance d satisfies
	// d+1 in [2^i, 2^(i+1)) — i.e. bin 0 is an immediate re-access.
	Hist [33]uint64
}

// CDF returns the fraction of non-cold accesses with stack distance
// below 2^exp — the hit rate of an exp-sized (in log2 blocks) fully
// associative LRU cache, excluding compulsory misses.
func (r ReuseStats) CDF(exp int) float64 {
	reuses := r.Accesses - r.ColdMisses
	if reuses == 0 {
		return 0
	}
	var c uint64
	for i := 0; i < exp && i < len(r.Hist); i++ {
		c += r.Hist[i]
	}
	return float64(c) / float64(reuses)
}

// HitRateAt estimates the hit rate (including compulsory misses as
// misses) of a fully associative LRU cache holding capacityBlocks.
func (r ReuseStats) HitRateAt(capacityBlocks uint64) float64 {
	if r.Accesses == 0 {
		return 0
	}
	exp := 0
	for (uint64(1) << uint(exp)) < capacityBlocks {
		exp++
	}
	reuses := r.Accesses - r.ColdMisses
	return r.CDF(exp) * float64(reuses) / float64(r.Accesses)
}

// reuseTimes is a Fenwick tree over one domain's access times that
// holds a 1 at each block's last-access time, so a reuse distance is
// the count of live times after the block's previous one. Times start
// at 1; the tree's span is a power of two and doubles when a time
// outgrows it, which leaves every old entry's range unchanged: of the
// new entries only the top one, which covers every time, is nonzero,
// and it holds the live count.
type reuseTimes struct {
	tree []uint32 // tree[i-1] covers times (i&(i-1), i]
	live uint32
}

// add marks time t live. Times arrive in increasing order.
func (f *reuseTimes) add(t uint64) {
	for uint64(len(f.tree)) < t {
		f.tree = append(f.tree, make([]uint32, max(len(f.tree), 1))...)
		f.tree[len(f.tree)-1] = f.live
	}
	for i := t; i <= uint64(len(f.tree)); i += i & -i {
		f.tree[i-1]++
	}
	f.live++
}

// remove clears live time t.
func (f *reuseTimes) remove(t uint64) {
	for i := t; i <= uint64(len(f.tree)); i += i & -i {
		f.tree[i-1]--
	}
	f.live--
}

// after counts the live times later than t.
func (f *reuseTimes) after(t uint64) uint64 {
	var n uint32
	for i := t; i > 0; i &= i - 1 {
		n += f.tree[i-1]
	}
	return uint64(f.live - n)
}

// ReuseAnalyzer computes per-domain block-granularity reuse-distance
// distributions in a single streaming pass (O(log n) per access).
type ReuseAnalyzer struct {
	blockBytes uint64
	last       [NumDomains]map[uint64]uint64
	times      [NumDomains]reuseTimes
	stats      [NumDomains]ReuseStats
}

// NewReuseAnalyzer builds an analyzer at the given block granularity
// (must be a power of two).
func NewReuseAnalyzer(blockBytes int) *ReuseAnalyzer {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		panic("trace: reuse analyzer needs power-of-two blocks")
	}
	ra := &ReuseAnalyzer{blockBytes: uint64(blockBytes)}
	for d := 0; d < NumDomains; d++ {
		ra.last[d] = make(map[uint64]uint64)
	}
	return ra
}

// Observe processes one access.
func (ra *ReuseAnalyzer) Observe(a Access) {
	d := a.Domain
	if !d.Valid() {
		return
	}
	block := a.Addr / ra.blockBytes
	st := &ra.stats[d]
	st.Accesses++
	now := st.Accesses // the domain's access time
	times := &ra.times[d]
	if prev, seen := ra.last[d][block]; seen {
		dist := times.after(prev)
		st.Hist[min(bits.Len64(dist+1)-1, len(st.Hist)-1)]++
		times.remove(prev)
	} else {
		st.ColdMisses++
		st.DistinctBlocks++
	}
	ra.last[d][block] = now
	times.add(now)
}

// Stats returns the accumulated distribution for one domain.
func (ra *ReuseAnalyzer) Stats(d Domain) ReuseStats { return ra.stats[d] }

// Analyze drains a source through a fresh analyzer.
func Analyze(src Source, blockBytes int) *ReuseAnalyzer {
	ra := NewReuseAnalyzer(blockBytes)
	for {
		a, ok := src.Next()
		if !ok {
			return ra
		}
		ra.Observe(a)
	}
}
