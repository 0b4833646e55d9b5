package cache

import (
	"math/bits"

	"mobilecache/internal/sample"
	"mobilecache/internal/trace"
)

// ShadowTags is an auxiliary tag directory used by the dynamic
// partition controller to estimate each domain's miss curve online.
// It mirrors the tag array of a cache at full associativity for a
// sampled subset of sets (1 in 2^SampleShift), tracking for each hit
// the LRU stack position it hit at. Utility-based partitioning then
// reads off how many extra hits each additional way would buy.
//
// Shadow tags hold no data and are cheap: the paper-style controller
// needs only hit counters per stack position plus an access counter
// (misses are the accesses no position hit).
type ShadowTags struct {
	ways        int
	sampleShift uint
	blockShift  uint
	indexMask   uint64

	// sel, when non-nil, is the set-sampling selector of the cache this
	// directory shadows. Only the selector's live sets receive traffic,
	// so the monitor's 1-in-2^sampleShift subsampling must be taken
	// from the live sets, not the nominal geometry — otherwise most
	// monitored sets would be permanently silent and the miss curves
	// the partition controller steers by would be starved of signal.
	sel  *sample.Selector
	nsel uint64

	// entries[sampledSet] is an LRU-ordered tag list, most recent
	// first. Length <= ways.
	entries [][]uint64

	hitsAtPos []uint64
	accesses  uint64
}

// NewShadowTagsSampled mirrors a cache of the given geometry.
// sampleShift selects 1-in-2^shift set sampling (0 = every set). The
// mirrored associativity may exceed the real cache's so the controller
// can see the utility of growing beyond the current allocation. sel
// names the live sets of a set-sampled cache (nil = all), and the
// 1-in-2^sampleShift subsampling is applied to the live sets in their
// dense rank order; a factor-1 selector behaves exactly like nil.
func NewShadowTagsSampled(sets, ways, blockBytes int, sampleShift uint, sel *sample.Selector) *ShadowTags {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: shadow tags need a power-of-two set count")
	}
	if ways <= 0 {
		panic("cache: shadow tags need positive ways")
	}
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		panic("cache: shadow tags need power-of-two block size")
	}
	liveSets := sets
	if sel != nil {
		if sets < sample.NumGroups {
			panic("cache: sampled shadow tags need at least one set per selection group")
		}
		// Power of two: sets>>GroupBits and the selected-group count
		// both are, so live-set subsampling composes with the shift.
		liveSets = sel.LiveSets(sets)
	}
	sampled := liveSets >> sampleShift
	if sampled == 0 {
		sampled = 1
		sampleShift = uint(bits.Len(uint(liveSets)) - 1)
	}
	st := &ShadowTags{
		ways:        ways,
		sampleShift: sampleShift,
		blockShift:  uint(bits.TrailingZeros(uint(blockBytes))),
		indexMask:   uint64(sets - 1),
		entries:     make([][]uint64, sampled),
		hitsAtPos:   make([]uint64, ways),
	}
	if sel != nil {
		st.sel = sel
		st.nsel = uint64(sel.Groups())
	}
	for i := range st.entries {
		st.entries[i] = make([]uint64, 0, ways)
	}
	return st
}

// liveIndex maps a set onto its dense position among the selector's
// live sets, or -1 when the set receives no traffic. Without a
// selector the live sets are all sets and the mapping is the identity.
func (st *ShadowTags) liveIndex(set uint64) int64 {
	if st.sel == nil {
		return int64(set)
	}
	r := st.sel.GroupRank(int(set) & (sample.NumGroups - 1))
	if r < 0 {
		return -1
	}
	return int64(set>>sample.GroupBits)*int64(st.nsel) + int64(r)
}

// Access records one access. Non-sampled sets are ignored.
func (st *ShadowTags) Access(addr uint64) {
	b := addr >> st.blockShift
	set := b & st.indexMask
	live := st.liveIndex(set)
	if live < 0 || uint64(live)&((1<<st.sampleShift)-1) != 0 {
		return
	}
	st.accesses++
	idx := int(uint64(live) >> st.sampleShift)
	tags := st.entries[idx]
	tag := b >> uint(bits.Len64(st.indexMask))
	for pos, t := range tags {
		if t == tag {
			st.hitsAtPos[pos]++
			// Move to front.
			copy(tags[1:pos+1], tags[:pos])
			tags[0] = tag
			return
		}
	}
	// Miss: insert at MRU, evicting beyond the mirrored associativity.
	if len(tags) < st.ways {
		tags = append(tags, 0)
	}
	copy(tags[1:], tags)
	tags[0] = tag
	st.entries[idx] = tags
}

// Accesses reports sampled accesses, halved at each Halve.
func (st *ShadowTags) Accesses() uint64 { return st.accesses }

// HitsAtOrBefore returns the sampled hits that a cache with the given
// number of ways would have captured.
func (st *ShadowTags) HitsAtOrBefore(ways int) uint64 {
	if ways > st.ways {
		ways = st.ways
	}
	var h uint64
	for i := 0; i < ways; i++ {
		h += st.hitsAtPos[i]
	}
	return h
}

// MissesWith estimates the sampled misses a cache with the given
// number of ways would incur: compulsory misses plus hits beyond the
// allocation.
func (st *ShadowTags) MissesWith(ways int) uint64 {
	return st.accesses - st.HitsAtOrBefore(ways)
}

// Halve decays all counters by half, keeping history while letting the
// controller track phase changes. Tag contents are preserved.
func (st *ShadowTags) Halve() {
	st.accesses /= 2
	for i := range st.hitsAtPos {
		st.hitsAtPos[i] /= 2
	}
}

// DomainMonitors pairs one shadow directory per domain, the unit the
// dynamic controller consumes.
type DomainMonitors struct {
	Mon [trace.NumDomains]*ShadowTags
}

// NewDomainMonitorsSampled builds per-domain shadow directories with
// identical geometry that follow a set-sampled cache's live sets (nil
// sel = all sets).
func NewDomainMonitorsSampled(sets, ways, blockBytes int, sampleShift uint, sel *sample.Selector) *DomainMonitors {
	return &DomainMonitors{
		Mon: [trace.NumDomains]*ShadowTags{
			trace.User:   NewShadowTagsSampled(sets, ways, blockBytes, sampleShift, sel),
			trace.Kernel: NewShadowTagsSampled(sets, ways, blockBytes, sampleShift, sel),
		},
	}
}

// Access routes an access to its domain's monitor.
func (dm *DomainMonitors) Access(addr uint64, d trace.Domain) {
	dm.Mon[d].Access(addr)
}

// Halve decays both monitors.
func (dm *DomainMonitors) Halve() {
	dm.Mon[trace.User].Halve()
	dm.Mon[trace.Kernel].Halve()
}
