package cache

import "mobilecache/internal/trace"

// This file is the cache-side surface of the frame-batched replay
// kernel (mem.AccessFrame). The kernel scans the tags array directly
// and performs the hit bookkeeping through the specialized entry
// points below, so the per-hit cost is the tag row scan plus a handful
// of stores — no Lookup call, no Result struct, no per-access stats
// writes (the kernel batches access/hit counts and flushes them once
// per frame via AddFrameCounts). Everything here assumes LRU
// replacement with every way powered, which is what every L1 is: the
// kernel serves only L1s, and nothing gates or re-policies them. The
// L2 organizations, which gate ways and vary the policy, use Lookup.

// Geometry exports the cache's (set, tag) address decomposition for
// the trace-side frame precompute.
func (c *Cache) Geometry() trace.SetTagGeom {
	return trace.SetTagGeom{BlockShift: c.blockShift, IndexMask: c.indexMask, TagShift: c.tagShift}
}

// frameTagsPad is the number of permanent invalidTag sentinels kept
// past the last set in the tags array: the kernel's hit scan loads a
// fixed FrameScanWays-wide window starting at any row base, so the
// last window of the last row needs up to FrameScanWays-1 readable
// entries beyond it (one more keeps the arithmetic obviously safe).
// Sentinels are invalidTag and are never written — Fill and Invalidate
// only touch indexes below sets*ways — and a window entry past the
// row's real ways is masked out of the match bits before it can alias
// the next set.
const frameTagsPad = FrameScanWays

// FrameScanWays is the width of one window of the kernel's tag-row
// scan; a row wider than this is scanned in consecutive windows.
const FrameScanWays = 4

// FrameTags exposes the tags array for the kernel's hit scan. A tag
// match at slot i is a hit on slot i: invalidTag never equals a real
// tag (see its comment).
func (c *Cache) FrameTags() []uint64 { return c.tags }

// Ways reports the associativity (the tags row stride).
func (c *Cache) Ways() int { return c.ways }

// TouchReadHitLRU is the read-hit bookkeeping of Lookup's LRU fast
// path for a hit on slot i: bump the replacement clock and refresh the
// line's recency metadata.
func (c *Cache) TouchReadHitLRU(i int, now uint64) {
	c.seq++
	c.seqs[i] = c.seq
	ln := &c.lines[i]
	ln.meta.LastTouch = now
	ln.meta.RefreshCount = 0
}

// TouchWriteHitLRU is touchLine's LRU write-hit path for a hit on slot
// i: recency update plus write-interval stats, dirty marking and the
// per-domain write counter, in touchLine's exact order.
func (c *Cache) TouchWriteHitLRU(i int, dom trace.Domain, now uint64) {
	c.seq++
	c.seqs[i] = c.seq
	ln := &c.lines[i]
	ln.meta.LastTouch = now
	ln.meta.RefreshCount = 0
	if ln.meta.WrittenAt <= now {
		c.stats.WriteIntervals[ln.meta.Domain].Observe(now - ln.meta.WrittenAt)
	}
	ln.meta.Dirty = true
	ln.meta.WrittenAt = now
	c.stats.Writes[dom]++
}

// AddFrameCounts flushes a frame's batched access/hit tallies into the
// stats counters (misses are the difference). Nothing reads the
// counters mid-frame — the miss path goes through Fill, which keeps
// its own counters — so deferring the adds to the frame boundary is
// observation-equivalent to Lookup's per-access increments.
func (c *Cache) AddFrameCounts(acc, hits *[trace.NumDomains]uint64) {
	for d := range acc {
		c.stats.Accesses[d] += acc[d]
		c.stats.Hits[d] += hits[d]
		c.stats.Misses[d] += acc[d] - hits[d]
	}
}
