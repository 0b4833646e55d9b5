package mem

import (
	"math/bits"

	"mobilecache/internal/cache"
	"mobilecache/internal/trace"
)

// This file implements the frame-batched hierarchy kernel of the
// replay hot path, split at the L1/L2 boundary into two stages. cpu.Run
// stages the trace in frames of up to 256 precomputed records
// (trace.FramePre: decoded access plus set/tag decomposition and
// routing); each frame runs through the front stage, then the back:
//
//	front  Front.Frame: the L1I/L1D hit loop, L1 fills and victim
//	       selection, and the next-line prefetch decision. Its output
//	       is the frame's L2-bound event stream (FrontFrame) plus the
//	       frame's busy cycles and L1 meter counts.
//	back   Hierarchy.Back: each event through the L2 (and DRAM on an
//	       L2 miss) at its exact cycle, the demand fills' stalls, and
//	       the L1 meter counts.
//
// AccessFrame pipelines the two over one frame. The split is exact
// because nothing the back stage does reaches the front: the miss
// path only sends demand fills, dirty victims and prefetches down (no
// back-invalidation, no inclusion), every L1 is LRU with every way
// powered and picks victims by its sequence counter, and the L1s run
// on their own clock (Front.now), whose stamps feed only their
// lifetime and write-interval histograms. So a front stage's output is
// a function of the trace, the L1 geometry, the prefetcher, the sample
// filter and the frame cuts alone, and sim.Run stores it once per
// trace for every machine that shares those (see FrontOutput).
//
// The front's hit path, per record:
//
//	hit path   branch-minimized scan of the target L1's tags row in
//	           four-wide windows (one window on a <=4-way L1); the
//	           lowest match bit is the hit way, and the specialized LRU
//	           touch follows. No Lookup call, no Result struct, no stats
//	           writes — access/hit tallies and meter counts accumulate
//	           in frame locals and flush once at the frame boundary.
//	miss path  Front.miss, inline and in order. Misses cannot be
//	           deferred to the frame boundary: a fill changes the set
//	           the very next record may index, so eviction, writeback
//	           and interference semantics stay exact only if the miss
//	           runs at its trace position.
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

// EventKind says what an L2-bound event is.
type EventKind uint8

const (
	// Demand is an L1 miss's fill: an L2 read that stalls the core,
	// plus a DRAM read on an L2 miss.
	Demand EventKind = iota
	// Writeback is a dirty L1 victim written into the L2; it does not
	// stall.
	Writeback
	// Prefetch is a next-line prefetch fill: an L2 read, plus a DRAM
	// read on an L2 miss, neither of which stalls.
	Prefetch
)

// Event is one L2-bound access of the front stage's output.
type Event struct {
	// Busy is the busy cycles since the frame's previous demand fill
	// (or its start), this record's own included; it is set on Demand
	// events only. A record's writeback and prefetch events follow its
	// demand fill and see the same cycle.
	Busy uint64
	// Addr is the block address.
	Addr uint64
	// Dom is the domain the L2 sees the access under: the record's,
	// or a writeback's victim's.
	Dom  trace.Domain
	Kind EventKind
}

// FrontFrame is the front stage's output for one frame: what the back
// stage needs to replay it without the L1s.
type FrontFrame struct {
	// Records is the frame's record count.
	Records int
	// Busy and BusyByDomain are the records' busy cycles.
	Busy         uint64
	BusyByDomain [trace.NumDomains]uint64
	// Events is the L2-bound stream, in trace order.
	Events []Event
	// L1Reads and L1Writes are the frame's L1 meter counts, indexed by
	// trace.KindData / trace.KindIfetch.
	L1Reads, L1Writes [2]uint64
}

// FrameGeom exports both L1 geometries for the trace-side precompute,
// indexed by trace.KindData / trace.KindIfetch.
func (f *Front) FrameGeom() trace.FrameGeom {
	return trace.FrameGeom{
		trace.KindData:   f.L1D.c.Geometry(),
		trace.KindIfetch: f.L1I.c.Geometry(),
	}
}

// frameL1 is one L1's hoisted state plus its frame-local tallies.
type frameL1 struct {
	l1   *L1
	c    *cache.Cache
	tags []uint64
	ways int
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
	s.tags = l1.c.FrameTags()
	s.ways = l1.c.Ways()
	s.wayMask = uint(1)<<s.ways - 1
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
// It is kept out of Frame's loop so the <=4-way rows every standard
// machine uses pay nothing for it.
func (s *frameL1) findRest(base int, tag uint64) int {
	for off := cache.FrameScanWays; off < s.ways; off += cache.FrameScanWays {
		if m := window(s.tagsAt(base+off), tag) & (s.wayMask >> uint(off)); m != 0 {
			return off + bits.TrailingZeros(m)
		}
	}
	return -1
}

// Frame runs one frame of precomputed records through the front stage,
// where pre[k].Busy is the busy cycles the CPU charges before record
// k's access, and writes the frame's output to out (reusing its event
// buffer).
func (f *Front) Frame(pre []FramePre, out *FrontFrame) {
	out.Records = len(pre)
	out.Busy = 0
	out.BusyByDomain = [trace.NumDomains]uint64{}
	out.Events = out.Events[:0]
	var l1s [2]frameL1
	l1s[trace.KindData].init(f.L1D)
	l1s[trace.KindIfetch].init(f.L1I)
	now := f.now
	var busy uint64 // since the last demand fill
	for k := range pre {
		p := &pre[k]
		now += p.Busy
		busy += p.Busy
		s := &l1s[p.Kind]
		base := int(p.Set) * s.ways
		// Domain values are 0 or 1 by construction; masking proves it to
		// the compiler so the tally indexing needs no bounds checks.
		dom := p.Dom & 1
		s.acc[dom]++
		out.BusyByDomain[dom] += p.Busy
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
			continue
		}
		// Misses leave the loop and run the miss continuation at their
		// exact trace position.
		f.miss(s, p, now, busy, out)
		busy = 0
	}
	f.now = now
	out.Busy = out.BusyByDomain[trace.User] + out.BusyByDomain[trace.Kernel]
	for kind := range l1s {
		s := &l1s[kind]
		s.c.AddFrameCounts(&s.acc, &s.hits)
		out.L1Reads[kind], out.L1Writes[kind] = s.reads, s.writes
	}
}

// miss is the L1-miss continuation of the front stage: the demand
// fill's event, the L1 fill and its dirty victim's writeback, and the
// optional next-line prefetch with its own fill and victim. The L2
// sees each event at the record's cycle, in this order.
func (f *Front) miss(s *frameL1, p *FramePre, now, busy uint64, out *FrontFrame) {
	l1 := s.l1
	s.reads++ // tag probe
	blockAddr := l1.c.BlockAddr(p.Addr)
	out.Events = append(out.Events, Event{Busy: busy, Addr: blockAddr, Dom: p.Dom, Kind: Demand})

	// Fill the L1; a dirty victim goes down into the L2 as a write.
	res := l1.c.Fill(p.Addr, p.Write, p.Dom, now)
	s.writes++
	if res.Evicted && res.EvictedDirty {
		s.reads++ // victim readout
		out.Events = append(out.Events, Event{Addr: res.EvictedAddr, Dom: res.EvictedDomain, Kind: Writeback})
	}

	// Next-line prefetch: bring block+1 into the L1 off the critical
	// path (no stall), unless it is already resident.
	if !f.NextLinePrefetch || p.Kind == trace.KindIfetch {
		return
	}
	next := blockAddr + uint64(l1.cfg.BlockBytes)
	if f.SampleFilter != nil && !f.SampleFilter(next) {
		return
	}
	if _, _, hit := l1.c.Probe(next); hit {
		return
	}
	s.reads++
	out.Events = append(out.Events, Event{Addr: next, Dom: p.Dom, Kind: Prefetch})
	pres := l1.c.Fill(next, false, p.Dom, now)
	s.writes++
	if pres.Evicted && pres.EvictedDirty {
		s.reads++
		out.Events = append(out.Events, Event{Addr: pres.EvictedAddr, Dom: pres.EvictedDomain, Kind: Writeback})
	}
}

// Back runs one frame of the front stage's output through the back
// stage, starting at cycle now, and returns the frame's clock totals;
// the caller's clock advances by Busy+Stall.
//
// Timing model: L1 hits stall nothing (the L1 hit latency is
// pipelined). An L1 miss pays the L2 access (bank wait + array read);
// an L2 miss additionally pays DRAM. Dirty L1 victims are written back
// into the L2 (write-allocate, no fetch); dirty L2 victims are written
// back to DRAM. Writebacks and prefetches consume bandwidth and energy
// but do not stall the CPU, so a record's stall lands after all of its
// events.
func (h *Hierarchy) Back(ff *FrontFrame, now uint64) FrameStats {
	fs := FrameStats{Busy: ff.Busy, ByDomain: ff.BusyByDomain}
	var stall uint64 // the previous demand fill's, not yet on the clock
	for i := range ff.Events {
		e := &ff.Events[i]
		switch e.Kind {
		case Demand:
			now += stall + e.Busy
			hit, lat := h.L2.Access(e.Addr, false, e.Dom, now)
			stall = lat
			if !hit {
				stall += h.DRAM.Read(e.Addr)
			}
			fs.Stall += stall
			fs.ByDomain[e.Dom&1] += stall
		case Writeback:
			h.L2.Access(e.Addr, true, e.Dom, now)
		case Prefetch:
			if hit, _ := h.L2.Access(e.Addr, false, e.Dom, now); !hit {
				h.DRAM.Read(e.Addr) // energy/traffic, no stall
			}
		}
	}
	for kind, l1 := range [2]*L1{trace.KindData: h.L1D, trace.KindIfetch: h.L1I} {
		l1.meter.Read(ff.L1Reads[kind])
		l1.meter.Write(ff.L1Writes[kind])
	}
	return fs
}

// AccessFrame replays one frame of precomputed records starting at
// time now through both stages, front then back, where pre[k].Busy is
// the busy cycles the CPU charges before record k's access. It returns
// the frame's clock totals; the caller's clock advances by Busy+Stall.
func (h *Hierarchy) AccessFrame(pre []FramePre, now uint64) FrameStats {
	h.Front.Frame(pre, &h.frame)
	return h.Back(&h.frame, now)
}
