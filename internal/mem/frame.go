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
// all invariant state — tag sidecars, way strides, meter pointers, the
// line arrays — hoisted into locals once per frame:
//
//	hit path   branch-minimized scan of the target L1's tags sidecar
//	           row (a full-slice expression, so the bounds check lifts
//	           out of the way loop), verified against the line, then
//	           the specialized LRU touch. No Lookup call, no Result
//	           struct, no stats writes — access/hit tallies and meter
//	           counts accumulate in frame locals and flush once at the
//	           frame boundary.
//	miss path  the shared missPath, inline and in order. Misses cannot
//	           be deferred to the frame boundary: a fill changes the
//	           set the very next record may index, so eviction,
//	           writeback and interference semantics stay exact only if
//	           the miss runs at its trace position.
//
// The kernel requires both L1s in their permanent configuration
// (every way powered, LRU — cache.FrameKernelOK); otherwise the frame
// degrades to the per-record accessPre path with identical semantics.
// Deferring the tallies is safe because nothing observes L1 stats or
// meter counts mid-frame: the CPU only calls Advance (leakage
// integration, which reads time, not counts) at frame boundaries, and
// every reporting path runs after Run returns.

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
	// wayMask keeps only the cache's real ways of the fixed-width scan
	// window's match bits (the window may overlap the next set's row,
	// or the sidecar's sentinel padding, on a <4-way cache).
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

// AccessFrame replays one frame of precomputed records starting at
// time now, where pre[k].Busy is the busy cycles the CPU charges
// before record k's access. It returns the frame's clock totals; the
// caller's clock advances by Busy+Stall. Semantics are bit-identical
// to calling accessPre per record at the same times.
func (h *Hierarchy) AccessFrame(pre []FramePre, now uint64) FrameStats {
	var fs FrameStats
	if !h.L1D.c.FrameKernelOK() || !h.L1I.c.FrameKernelOK() {
		return h.accessFrameSlow(pre, now)
	}
	var l1s [2]frameL1
	l1s[trace.KindData].init(h.L1D)
	l1s[trace.KindIfetch].init(h.L1I)
	for k := range pre {
		p := &pre[k]
		now += p.Busy
		s := &l1s[p.Kind]
		base := int(p.Set) * s.ways
		// Branchless tag match over a fixed four-wide window: fold each
		// way's compare into a bitmask instead of scanning with an early
		// break — the break's position is data-dependent and mispredicts
		// constantly, and a mispredict costs more than comparing four
		// tags (one host cache line). The constant width removes the
		// loop; wayMask drops window bits past the row's real ways
		// (possible only on the <4-way cache, where the window overlaps
		// the next row or the sidecar's sentinel padding).
		// (v|-v)>>63 is 1 exactly when v != 0.
		tg := (*[cache.FrameScanWays]uint64)(s.tags[base:])
		v0 := tg[0] ^ p.Tag
		v1 := tg[1] ^ p.Tag
		v2 := tg[2] ^ p.Tag
		v3 := tg[3] ^ p.Tag
		m := (uint((v0|-v0)>>63^1) |
			uint((v1|-v1)>>63^1)<<1 |
			uint((v2|-v2)>>63^1)<<2 |
			uint((v3|-v3)>>63^1)<<3) & s.wayMask
		// Domain values are 0 or 1 by construction; masking proves it to
		// the compiler so the tally indexing needs no bounds checks.
		dom := p.Dom & 1
		s.acc[dom]++
		var stall uint64
		if m != 0 {
			// A sidecar match is a hint (invalidTag can collide with a
			// genuine tag): verify against the line. Almost always the
			// first set bit verifies — both branches below predict well.
			way := -1
			for ; m != 0; m &= m - 1 {
				if w := bits.TrailingZeros(m); s.c.VerifyHit(base+w, p.Tag) {
					way = w
					break
				}
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
		}
		// Misses leave the kernel and replay through the shared miss
		// continuation at their exact trace position.
		stall = h.missPath(s.l1, trace.Access{Addr: p.Addr, PC: p.PC, Op: p.Op(), Domain: dom}, p.Write, now)
		now += stall
		fs.Stall += stall
		fs.Busy += p.Busy
		fs.ByDomain[dom] += p.Busy + stall
	}
	l1s[trace.KindData].flush()
	l1s[trace.KindIfetch].flush()
	return fs
}

// accessFrameSlow is the frame loop over the general per-record path,
// for hierarchies whose L1s fall outside the kernel's specialization.
func (h *Hierarchy) accessFrameSlow(pre []FramePre, now uint64) FrameStats {
	var fs FrameStats
	for k := range pre {
		p := &pre[k]
		now += p.Busy
		stall := h.accessPre(p, now)
		now += stall
		fs.Busy += p.Busy
		fs.Stall += stall
		fs.ByDomain[p.Dom] += p.Busy + stall
	}
	return fs
}

// accessPre performs one precomputed access at time now and returns
// the stall cycles the instruction suffers beyond its pipelined L1
// hit. It is the general per-record path the frame kernel's fast loop
// specializes.
//
// Model: L1 hits stall nothing. An L1 miss pays the L2 access (bank
// wait + array read); an L2 miss additionally pays DRAM. Dirty L1
// victims are written back into the L2 (write-allocate, no fetch);
// dirty L2 victims are written back to DRAM. Writebacks consume
// bandwidth and energy but do not stall the CPU.
func (h *Hierarchy) accessPre(p *FramePre, now uint64) uint64 {
	l1 := h.L1D
	if p.Kind == trace.KindIfetch {
		l1 = h.L1I
	}
	if _, hit := l1.c.LookupAt(int(p.Set), p.Tag, p.Write, p.Dom, now); hit {
		if p.Write {
			l1.meter.Write(1)
		} else {
			l1.meter.Read(1)
		}
		return 0
	}
	return h.missPath(l1, trace.Access{Addr: p.Addr, PC: p.PC, Op: p.Op(), Domain: p.Dom}, p.Write, now)
}
