package mem

import (
	"math/bits"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
	"mobilecache/internal/trace"
)

// This file implements the frame-batched hierarchy kernel of the
// replay hot path, the hierarchy's only access entry point. cpu.Run
// stages the trace in frames of up to 256 precomputed records
// (trace.FramePre: decoded access plus set/tag decomposition and
// routing) and hands each frame to AccessFrame, which replays it with
// all invariant state — tag arrays, way strides, meter pointers —
// hoisted into locals once per frame:
//
//	hit path   branch-minimized scan of the target L1's tags row in
//	           four-wide windows (one window on a <=4-way L1); the
//	           lowest match bit is the hit way, and the specialized LRU
//	           touch follows. No Lookup call, no Result struct, no stats
//	           writes — access/hit tallies and meter counts accumulate
//	           in frame locals and flush once at the frame boundary.
//	miss path  missPath, inline and in order. Misses cannot be deferred
//	           to the frame boundary: a fill changes the set the very
//	           next record may index, so eviction, writeback and
//	           interference semantics stay exact only if the miss runs
//	           at its trace position.
//
// The hit path is specialized to what every L1 is by construction
// (NewL1 is the only L1 constructor): LRU replacement with every way
// powered, at any associativity the cache accepts. Deferring the
// tallies is safe because nothing observes L1 stats or meter counts
// mid-frame: the CPU only calls Advance (leakage integration, which
// reads time, not counts) at frame boundaries, and every reporting
// path runs after Run returns.

// FramePre is the precomputed per-record lookup context; the concrete
// type lives in trace so the packed-trace decoder can emit it
// directly (Cursor.DecodeFrame) without a layering inversion.
type FramePre = trace.FramePre

// FrameStats is what a frame of accesses did to the clock: busy
// cycles consumed by the records' instructions, stall cycles from L1
// misses, and the per-domain split of both.
type FrameStats struct {
	Busy     uint64
	Stall    uint64
	ByDomain [trace.NumDomains]uint64
}

// FrameGeom exports both L1 geometries for the trace-side precompute,
// indexed by trace.KindData / trace.KindIfetch.
func (h *Hierarchy) FrameGeom() trace.FrameGeom {
	return trace.FrameGeom{
		trace.KindData:   h.L1D.c.Geometry(),
		trace.KindIfetch: h.L1I.c.Geometry(),
	}
}

// frameL1 is one L1's hoisted state plus its frame-local tallies.
type frameL1 struct {
	l1    *L1
	c     *cache.Cache
	meter *energy.Meter
	tags  []uint64
	ways  int
	// wayMask has one bit per real way of a tag row. Shifted down to a
	// window's first way it keeps only that window's real ways: the
	// last window of a row whose associativity is not a multiple of
	// the window width overlaps the next set's row, or the tags array's
	// sentinel padding.
	wayMask uint

	acc    [trace.NumDomains]uint64
	hits   [trace.NumDomains]uint64
	reads  uint64
	writes uint64
}

func (s *frameL1) init(l1 *L1) {
	s.l1 = l1
	s.c = l1.c
	s.meter = l1.meter
	s.tags = l1.c.FrameTags()
	s.ways = l1.c.Ways()
	s.wayMask = uint(1)<<s.ways - 1
}

func (s *frameL1) flush() {
	s.c.AddFrameCounts(&s.acc, &s.hits)
	s.meter.Read(s.reads)
	s.meter.Write(s.writes)
}

// window returns the match bits of a four-wide tag window: bit j is
// set when tg[j] == tag. It is branchless: each way's compare folds
// into the mask instead of a scan with an early break, whose
// data-dependent position mispredicts constantly — and a mispredict
// costs more than comparing four tags (one host cache line).
// (v|-v)>>63 is 1 exactly when v != 0, so the folded word has a bit
// per differing tag and ^0xf flips it to the matches. The caller masks
// the bits past the row's real ways: the window may overlap the next
// set's row, or the tags array's sentinel padding.
func window(tg *[cache.FrameScanWays]uint64, tag uint64) uint {
	v0 := tg[0] ^ tag
	v1 := tg[1] ^ tag
	v2 := tg[2] ^ tag
	v3 := tg[3] ^ tag
	return uint((v0|-v0)>>63|(v1|-v1)>>63<<1|(v2|-v2)>>63<<2|(v3|-v3)>>63<<3) ^ 0xf
}

// tagsAt returns the four tags starting at tags[i]; the tags array's
// padding keeps any window of any row in bounds.
func (s *frameL1) tagsAt(i int) *[cache.FrameScanWays]uint64 {
	return (*[cache.FrameScanWays]uint64)(s.tags[i:])
}

// findRest scans the windows after the first of a row wider than one
// window, masking a partial last window, and returns the hit way or -1.
// It is kept out of AccessFrame's loop so the <=4-way rows every
// standard machine uses pay nothing for it.
func (s *frameL1) findRest(base int, tag uint64) int {
	for off := cache.FrameScanWays; off < s.ways; off += cache.FrameScanWays {
		if m := window(s.tagsAt(base+off), tag) & (s.wayMask >> uint(off)); m != 0 {
			return off + bits.TrailingZeros(m)
		}
	}
	return -1
}

// AccessFrame replays one frame of precomputed records starting at
// time now, where pre[k].Busy is the busy cycles the CPU charges
// before record k's access. It returns the frame's clock totals; the
// caller's clock advances by Busy+Stall.
//
// Timing model: L1 hits stall nothing (the L1 hit latency is
// pipelined). An L1 miss pays the L2 access (bank wait + array read);
// an L2 miss additionally pays DRAM. Dirty L1 victims are written back
// into the L2 (write-allocate, no fetch); dirty L2 victims are written
// back to DRAM. Writebacks consume bandwidth and energy but do not
// stall the CPU.
func (h *Hierarchy) AccessFrame(pre []FramePre, now uint64) FrameStats {
	var fs FrameStats
	var l1s [2]frameL1
	l1s[trace.KindData].init(h.L1D)
	l1s[trace.KindIfetch].init(h.L1I)
	for k := range pre {
		p := &pre[k]
		now += p.Busy
		s := &l1s[p.Kind]
		base := int(p.Set) * s.ways
		// Domain values are 0 or 1 by construction; masking proves it to
		// the compiler so the tally indexing needs no bounds checks.
		dom := p.Dom & 1
		s.acc[dom]++
		// The first window is scanned inline; only a row wider than one
		// window, with no hit in its first, continues in findRest.
		way := -1
		if m := window(s.tagsAt(base), p.Tag) & s.wayMask; m != 0 {
			way = bits.TrailingZeros(m)
		} else if s.ways > cache.FrameScanWays {
			way = s.findRest(base, p.Tag)
		}
		if way >= 0 {
			s.hits[dom]++
			if p.Write {
				s.c.TouchWriteHitLRU(base+way, dom, now)
				s.writes++
			} else {
				s.c.TouchReadHitLRU(base+way, now)
				s.reads++
			}
			fs.Busy += p.Busy
			fs.ByDomain[dom] += p.Busy
			continue
		}
		// Misses leave the kernel and replay through the miss
		// continuation at their exact trace position.
		stall := h.missPath(s.l1, p, now)
		now += stall
		fs.Stall += stall
		fs.Busy += p.Busy
		fs.ByDomain[dom] += p.Busy + stall
	}
	l1s[trace.KindData].flush()
	l1s[trace.KindIfetch].flush()
	return fs
}
