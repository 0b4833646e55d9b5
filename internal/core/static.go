package core

import (
	"fmt"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
	"mobilecache/internal/trace"
)

// StaticPartition is the paper's first design: the L2 is split into two
// physically separate segments, one reachable only by user accesses and
// one only by kernel accesses. Interference between the domains
// disappears by construction, which lets the segments be sized smaller
// than the unified baseline at a similar miss rate. Each segment is an
// independent bank with its own technology, so the multi-retention
// design (user segment in a long-retention STT-RAM, kernel segment in a
// short-retention one) is just a configuration of this type.
type StaticPartition struct {
	segs [trace.NumDomains]*segment
}

// NewStaticPartition builds the two-segment L2. The segment configs are
// independent; the paper's SP design uses SRAM for both, its SP-MR
// design uses STT-RAM classes matched to each domain's behaviour.
func NewStaticPartition(name string, user, kernel SegmentConfig, wb func(addr uint64)) (*StaticPartition, error) {
	if user.BlockBytes != kernel.BlockBytes {
		return nil, fmt.Errorf("core: %s: segment block sizes differ (%d vs %d)", name, user.BlockBytes, kernel.BlockBytes)
	}
	us, err := newSegment(user, wb)
	if err != nil {
		return nil, fmt.Errorf("core: %s user segment: %w", name, err)
	}
	ks, err := newSegment(kernel, wb)
	if err != nil {
		return nil, fmt.Errorf("core: %s kernel segment: %w", name, err)
	}
	sp := &StaticPartition{}
	sp.segs[trace.User] = us
	sp.segs[trace.Kernel] = ks
	return sp, nil
}

// Access implements L2, routing by domain; the two banks are
// independent, so user and kernel accesses never contend.
func (sp *StaticPartition) Access(blockAddr uint64, write bool, dom trace.Domain, now uint64) (bool, uint64) {
	return sp.segs[dom].access(blockAddr, write, dom, now)
}

// Advance implements L2.
func (sp *StaticPartition) Advance(now uint64) {
	sp.segs[trace.User].advance(now)
	sp.segs[trace.Kernel].advance(now)
}

// Energy implements L2, summing both segments.
func (sp *StaticPartition) Energy() energy.Breakdown {
	bd := sp.segs[trace.User].meter.Breakdown()
	bd.Add(sp.segs[trace.Kernel].meter.Breakdown())
	return bd
}

// SegmentEnergy reports one segment's breakdown (for E6's per-segment
// split).
func (sp *StaticPartition) SegmentEnergy(d trace.Domain) energy.Breakdown {
	return sp.segs[d].meter.Breakdown()
}

// Stats implements L2, summing both segments.
func (sp *StaticPartition) Stats() L2Stats {
	s := sp.segs[trace.User].stats()
	s.add(sp.segs[trace.Kernel].stats())
	return s
}

// SegmentStats reports one segment's counters.
func (sp *StaticPartition) SegmentStats(d trace.Domain) L2Stats {
	return sp.segs[d].stats()
}

// SegmentCache exposes a segment's array for instrumentation.
func (sp *StaticPartition) SegmentCache(d trace.Domain) *cache.Cache {
	return sp.segs[d].c
}

// SizeBytes implements L2.
func (sp *StaticPartition) SizeBytes() uint64 {
	return sp.segs[trace.User].cfg.SizeBytes + sp.segs[trace.Kernel].cfg.SizeBytes
}

// PoweredBytes implements L2; static segments are always fully powered.
func (sp *StaticPartition) PoweredBytes() uint64 { return sp.SizeBytes() }

var _ L2 = (*StaticPartition)(nil)
