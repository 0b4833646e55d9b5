package core

import (
	"fmt"

	"mobilecache/internal/energy"
	"mobilecache/internal/trace"
)

// SetPartition is the page-coloring alternative to the paper's
// mechanisms: one physical array whose *sets* (rather than ways or
// separate segments) are divided between the domains by remapping the
// index. An OS can realize this with no hardware change by coloring
// physical pages, which is why an open-source release ships it as a
// comparison point (experiment E20). Each domain sees a private,
// smaller cache with the full associativity; the trade-off against
// way partitioning is index-bit granularity instead of way
// granularity, and against separate segments a shared bank.
type SetPartition struct {
	seg *segment
	// userSets is the number of sets assigned to the user domain; the
	// remaining sets belong to the kernel. Both are powers of two.
	userSets   int
	kernelSets int
}

// NewSetPartition builds the design, giving userSetsWanted sets to the
// user domain and the remainder to the kernel. The index remapping is
// a modulo fold, so any split is admissible; real page coloring would
// round to page-granular powers of two, which callers can do by
// choosing the split accordingly.
func NewSetPartition(cfg SegmentConfig, userSetsWanted int, wb func(addr uint64)) (*SetPartition, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := cfg.Sets()
	if userSetsWanted <= 0 || userSetsWanted >= total {
		return nil, fmt.Errorf("core: set partition needs 0 < userSets < %d, got %d", total, userSetsWanted)
	}
	seg, err := newSegment(cfg, wb)
	if err != nil {
		return nil, err
	}
	return &SetPartition{seg: seg, userSets: userSetsWanted, kernelSets: total - userSetsWanted}, nil
}

// remap folds a block address into the domain's set region while
// keeping the tag unambiguous: the domain's region index is the block
// address modulo its set count, offset into its region; the rest of
// the address becomes the tag. Distinct blocks keep distinct
// (set, tag) pairs because the division is by the region size.
func (sp *SetPartition) remap(blockAddr uint64, dom trace.Domain) uint64 {
	block := blockAddr / uint64(sp.seg.cfg.BlockBytes)
	regionSets := uint64(sp.userSets)
	base := uint64(0)
	if dom == trace.Kernel {
		regionSets = uint64(sp.kernelSets)
		base = uint64(sp.userSets)
	}
	idx := block % regionSets
	tag := block / regionSets
	totalSets := uint64(sp.seg.cfg.Sets())
	// Reassembled block index: tag bits above the full index field,
	// region-local index plus the region base below.
	newBlock := tag*totalSets + base + idx
	return newBlock * uint64(sp.seg.cfg.BlockBytes)
}

// Access implements L2, remapping the index into the caller's region.
func (sp *SetPartition) Access(blockAddr uint64, write bool, dom trace.Domain, now uint64) (bool, uint64) {
	return sp.seg.access(sp.remap(blockAddr, dom), write, dom, now)
}

// Advance implements L2.
func (sp *SetPartition) Advance(now uint64) { sp.seg.advance(now) }

// Energy implements L2.
func (sp *SetPartition) Energy() energy.Breakdown { return sp.seg.meter.Breakdown() }

// Stats implements L2.
func (sp *SetPartition) Stats() L2Stats { return sp.seg.stats() }

// SizeBytes implements L2.
func (sp *SetPartition) SizeBytes() uint64 { return sp.seg.cfg.SizeBytes }

// PoweredBytes implements L2.
func (sp *SetPartition) PoweredBytes() uint64 { return sp.seg.cfg.SizeBytes }

var _ L2 = (*SetPartition)(nil)
