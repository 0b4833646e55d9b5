// Package cache implements the set-associative cache model underlying
// every L1 and L2 organization in the simulator. It supports the
// features the paper's designs need on top of a textbook cache:
//
//   - per-domain way masks, so a single array can be way-partitioned
//     between user and kernel blocks (dynamic partitioning);
//   - a global enabled-way mask, so unused ways can be power-gated and
//     their capacity excluded (dynamic downsizing);
//   - split probe/touch/fill entry points, so STT-RAM wrappers can
//     interpose retention-expiry checks between the tag match and the
//     data access;
//   - per-block metadata (fill time, last write time) feeding the
//     block-lifetime statistics that motivate multi-retention STT-RAM;
//   - interference accounting: evictions where the victim belongs to
//     the other domain, the effect static partitioning eliminates.
//
// Time is an opaque uint64 supplied by the caller (the simulator passes
// cycles); the cache never advances time itself.
package cache

import (
	"fmt"
	"math/bits"

	"mobilecache/internal/trace"
)

// Config describes one cache array.
type Config struct {
	// Name labels the cache in stats output (e.g. "L2-user").
	Name string
	// SizeBytes is the data capacity. Must be Ways*BlockBytes*2^k.
	SizeBytes uint64
	// Ways is the associativity (1..64).
	Ways int
	// BlockBytes is the line size; must be a power of two.
	BlockBytes int
	// Policy selects the replacement policy (default LRU).
	Policy PolicyKind
}

// Validate checks the geometry and reports a descriptive error.
func (c Config) Validate() error {
	if c.Ways < 1 || c.Ways > 64 {
		return fmt.Errorf("cache %s: ways %d outside 1..64", c.Name, c.Ways)
	}
	if c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockBytes)
	}
	lineCap := uint64(c.Ways) * uint64(c.BlockBytes)
	if c.SizeBytes == 0 || c.SizeBytes%lineCap != 0 {
		return fmt.Errorf("cache %s: size %d not a multiple of ways*block (%d)", c.Name, c.SizeBytes, lineCap)
	}
	sets := c.SizeBytes / lineCap
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if !c.Policy.Valid() {
		return fmt.Errorf("cache %s: unknown policy %d", c.Name, c.Policy)
	}
	return nil
}

// Sets computes the number of sets implied by the geometry.
func (c Config) Sets() int {
	return int(c.SizeBytes / (uint64(c.Ways) * uint64(c.BlockBytes)))
}

// BlockMeta is the externally visible per-line metadata. Controllers
// (refresh, repartitioning) read it; WrittenAt is also updated by
// refresh operations through Rewrite.
// BlockMeta fields are ordered widest-first so the struct packs tight;
// with the line wrapper below that keeps one way at exactly 64 bytes.
type BlockMeta struct {
	// Addr is the block-aligned address the line holds.
	Addr uint64
	// FilledAt is the time the line was brought in.
	FilledAt uint64
	// WrittenAt is the last time the physical cells were written:
	// fill, store, or refresh. STT-RAM retention counts from here.
	WrittenAt uint64
	// LastTouch is the last access (hit) time.
	LastTouch uint64
	// RefreshCount is the number of consecutive refreshes since the
	// line was last accessed; refresh controllers use it to stop
	// refreshing idle lines (the "dynamic refresh" scheme).
	RefreshCount uint32
	// Domain is the owner domain of the line.
	Domain trace.Domain
	// Dirty reports whether the line has unwritten-back stores.
	Dirty bool
}

// line packs to exactly 64 bytes — one host cache line per way — with
// the tag-match and replacement fields every probe and touch uses at
// the head of the struct.
type line struct {
	tag    uint64
	lruSeq uint64 // LRU: last-use sequence number; FIFO: fill sequence
	meta   BlockMeta
	valid  bool
	// replacement state
	rrpv    uint8 // SRRIP re-reference prediction value
	plruHot bool  // tree-PLRU approximation bit
}

// Stats aggregates cache event counters, split by domain where the
// paper's analysis needs it.
type Stats struct {
	Accesses   [trace.NumDomains]uint64
	Hits       [trace.NumDomains]uint64
	Misses     [trace.NumDomains]uint64
	Writes     [trace.NumDomains]uint64
	Evictions  uint64
	Writebacks uint64
	// InterferenceEvictions counts victims whose domain differed from
	// the domain of the block that replaced them — the cross-domain
	// thrashing static partitioning removes.
	InterferenceEvictions uint64
	// ExpiryInvalidations counts lines dropped because their STT-RAM
	// retention lapsed (driven by the sttram wrapper).
	ExpiryInvalidations uint64
	// Lifetimes records fill→evict distances of evicted lines.
	Lifetimes [trace.NumDomains]*Log2Hist
	// WriteIntervals records write→write distances on lines.
	WriteIntervals [trace.NumDomains]*Log2Hist
}

// Log2Hist is a tiny embedded log2 histogram; cache keeps its own to
// avoid an import cycle with stats consumers (and because these are on
// the hot path).
type Log2Hist struct {
	Bins  [40]uint64
	Total uint64
}

// Observe records a non-negative sample.
func (h *Log2Hist) Observe(x uint64) {
	h.Total++
	i := 0
	if x > 0 {
		i = bits.Len64(x) // 1 + floor(log2(x))
		if i >= len(h.Bins) {
			i = len(h.Bins) - 1
		}
	}
	h.Bins[i]++
}

// Mean returns the approximate mean using bucket midpoints.
func (h *Log2Hist) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	sum := 0.0
	for i, c := range h.Bins {
		if c == 0 {
			continue
		}
		mid := 0.0
		if i > 0 {
			mid = float64(uint64(1)<<uint(i-1)) * 1.5
		}
		sum += mid * float64(c)
	}
	return sum / float64(h.Total)
}

// CDFBelow returns the fraction of samples below 2^exp.
func (h *Log2Hist) CDFBelow(exp int) float64 {
	if h.Total == 0 {
		return 0
	}
	var c uint64
	for i := 0; i <= exp && i < len(h.Bins); i++ {
		c += h.Bins[i]
	}
	return float64(c) / float64(h.Total)
}

// TotalAccesses sums accesses over both domains.
func (s *Stats) TotalAccesses() uint64 {
	return s.Accesses[trace.User] + s.Accesses[trace.Kernel]
}

// TotalMisses sums misses over both domains.
func (s *Stats) TotalMisses() uint64 {
	return s.Misses[trace.User] + s.Misses[trace.Kernel]
}

// MissRate is total misses over total accesses.
func (s *Stats) MissRate() float64 {
	a := s.TotalAccesses()
	if a == 0 {
		return 0
	}
	return float64(s.TotalMisses()) / float64(a)
}

// DomainMissRate is the miss rate of one domain's accesses.
func (s *Stats) DomainMissRate(d trace.Domain) float64 {
	if s.Accesses[d] == 0 {
		return 0
	}
	return float64(s.Misses[d]) / float64(s.Accesses[d])
}

// Cache is a single set-associative array.
type Cache struct {
	cfg        Config
	sets       int
	ways       int // == cfg.Ways, hoisted for the lookup path
	blockShift uint
	tagShift   uint
	indexMask  uint64
	lines      []line
	// tags mirrors lines[i].tag for valid lines (invalidTag otherwise)
	// in a dense array of its own: a whole set's tags share one host
	// cache line, so the per-way scan in Lookup/Probe stops striding
	// across the much larger line structs. Lines stay authoritative —
	// a tag match is verified against the line before it counts. The
	// array carries frameTagsPad permanent invalidTag entries past the
	// last set so the frame kernel can load a fixed-width window from
	// any row without a bounds branch (see frame.go).
	tags []uint64
	// seqs mirrors lines[i].lruSeq for valid lines (0 otherwise — a
	// valid line's sequence is always positive because the counter
	// pre-increments). The LRU/FIFO victim scan reads this dense array
	// instead of striding across the 64-byte line structs: a 16-way
	// row is two host cache lines here versus sixteen there, and the
	// 0-for-invalid sentinel folds the prefer-an-invalid-way rule into
	// the same min scan (an invalid way is the global minimum, and the
	// strict < keeps the lowest index on ties).
	seqs []uint64
	seq  uint64 // replacement sequence counter

	// allOn is true while every way is powered — the permanent state of
	// every cache except a power-gated dynamic partition. Lookup and
	// Probe then scan the set sequentially instead of walking the
	// enabled-way bitmask.
	allOn bool

	// enabledMask marks powered ways; domainMask[d] restricts where
	// domain d may allocate. A domain mask is always interpreted
	// through the enabled mask.
	enabledMask uint64
	domainMask  [trace.NumDomains]uint64

	stats  Stats
	policy PolicyKind
}

// Result describes what one access did.
type Result struct {
	Hit bool
	Set int
	Way int
	// Evicted is true when a valid victim was displaced by the fill.
	Evicted       bool
	EvictedDirty  bool
	EvictedAddr   uint64
	EvictedDomain trace.Domain
	// Interference is true when the victim belonged to the other domain.
	Interference bool
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:        cfg,
		sets:       sets,
		ways:       cfg.Ways,
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		tagShift:   uint(bits.Len64(uint64(sets - 1))),
		indexMask:  uint64(sets - 1),
		lines:      make([]line, sets*cfg.Ways),
		tags:       make([]uint64, sets*cfg.Ways+frameTagsPad),
		seqs:       make([]uint64, sets*cfg.Ways),
		policy:     cfg.Policy,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	c.enabledMask = allWays(cfg.Ways)
	c.allOn = true
	c.domainMask[trace.User] = c.enabledMask
	c.domainMask[trace.Kernel] = c.enabledMask
	c.stats.Lifetimes[trace.User] = &Log2Hist{}
	c.stats.Lifetimes[trace.Kernel] = &Log2Hist{}
	c.stats.WriteIntervals[trace.User] = &Log2Hist{}
	c.stats.WriteIntervals[trace.Kernel] = &Log2Hist{}
	return c, nil
}

// invalidTag marks empty slots in the tags sidecar. A genuine tag may
// collide with it (an all-ones address), which is why a sidecar match
// is always re-verified against the line struct before it counts.
const invalidTag = ^uint64(0)

func allWays(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// Stats exposes the counters; callers must treat it as read-only.
func (c *Cache) Stats() *Stats { return &c.stats }

// BlockAddr returns addr rounded down to its block base.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockBytes) - 1)
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	b := addr >> c.blockShift
	return int(b & c.indexMask), b >> c.tagShift
}

func (c *Cache) line(set, way int) *line {
	return &c.lines[set*c.cfg.Ways+way]
}

// SetEnabledMask powers exactly the ways in mask. Lines in disabled
// ways must be flushed by the caller first (see FlushWays); allocating
// domain masks are clipped to the new enabled set. It panics if mask
// selects ways beyond the associativity or disables every way.
func (c *Cache) SetEnabledMask(mask uint64) {
	if mask&^allWays(c.cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: enabled mask %#x exceeds %d ways", c.cfg.Name, mask, c.cfg.Ways))
	}
	if mask == 0 {
		panic(fmt.Sprintf("cache %s: cannot disable every way", c.cfg.Name))
	}
	c.enabledMask = mask
	c.allOn = mask == allWays(c.cfg.Ways)
	for d := range c.domainMask {
		c.domainMask[d] &= mask
	}
}

// EnabledMask reports the powered ways.
func (c *Cache) EnabledMask() uint64 { return c.enabledMask }

// SetDomainMask restricts where domain d may allocate. The mask is
// clipped to enabled ways; a zero (post-clip) mask panics because the
// domain could never allocate.
func (c *Cache) SetDomainMask(d trace.Domain, mask uint64) {
	mask &= c.enabledMask
	if mask == 0 {
		panic(fmt.Sprintf("cache %s: domain %v allocation mask empty", c.cfg.Name, d))
	}
	c.domainMask[d] = mask
}

// Probe looks up addr without side effects. Hits in disabled ways are
// not reported (the data is gone once a way is gated).
func (c *Cache) Probe(addr uint64) (set, way int, ok bool) {
	set, tag := c.index(addr)
	base := set * c.ways
	if c.allOn {
		tags := c.tags[base : base+c.ways]
		for w := range tags {
			if tags[w] == tag {
				if ln := &c.lines[base+w]; ln.valid && ln.tag == tag {
					return set, w, true
				}
			}
		}
		return set, -1, false
	}
	for m := c.enabledMask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.tags[base+w] == tag {
			if ln := &c.lines[base+w]; ln.valid && ln.tag == tag {
				return set, w, true
			}
		}
	}
	return set, -1, false
}

// Meta returns the metadata of a valid line, or nil.
func (c *Cache) Meta(set, way int) *BlockMeta {
	ln := c.line(set, way)
	if !ln.valid {
		return nil
	}
	return &ln.meta
}

// Lookup is the fused hot-path entry point: Probe + CountAccess +
// Touch in one pass over the set, with a single index computation and
// line dereference. It allocates nothing (the cache benchmarks assert
// 0 allocs/op) — this is the call the hierarchy makes for every L1
// access. On a miss only the access/miss counters are updated; the
// caller decides whether to Fill.
func (c *Cache) Lookup(addr uint64, write bool, dom trace.Domain, now uint64) (set, way int, hit bool) {
	set, tag := c.index(addr)
	base := set * c.ways
	c.stats.Accesses[dom]++
	if c.allOn {
		tags := c.tags[base : base+c.ways]
		for w := range tags {
			if tags[w] == tag {
				if ln := &c.lines[base+w]; ln.valid && ln.tag == tag {
					c.stats.Hits[dom]++
					// The dominant case — a read hit under LRU — is
					// touchLine's fast path written out by hand; the
					// combined function is over the inlining budget and
					// this is the call made for every L1 hit.
					if c.policy == LRU && !write {
						c.seq++
						ln.lruSeq = c.seq
						c.seqs[base+w] = c.seq
						ln.meta.LastTouch = now
						ln.meta.RefreshCount = 0
					} else {
						c.touchLine(ln, set, w, write, dom, now)
					}
					return set, w, true
				}
			}
		}
		c.stats.Misses[dom]++
		return set, -1, false
	}
	for m := c.enabledMask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.tags[base+w] == tag {
			if ln := &c.lines[base+w]; ln.valid && ln.tag == tag {
				c.stats.Hits[dom]++
				if c.policy == LRU && !write {
					c.seq++
					ln.lruSeq = c.seq
					c.seqs[base+w] = c.seq
					ln.meta.LastTouch = now
					ln.meta.RefreshCount = 0
				} else {
					c.touchLine(ln, set, w, write, dom, now)
				}
				return set, w, true
			}
		}
	}
	c.stats.Misses[dom]++
	return set, -1, false
}

// LookupAt is Lookup with the set/tag decomposition already done (by
// the frame-precompute stage). It is otherwise identical: counts the
// access, touches on hit, and leaves fills to the caller.
func (c *Cache) LookupAt(set int, tag uint64, write bool, dom trace.Domain, now uint64) (way int, hit bool) {
	base := set * c.ways
	c.stats.Accesses[dom]++
	if c.allOn {
		tags := c.tags[base : base+c.ways]
		for w := range tags {
			if tags[w] == tag {
				if ln := &c.lines[base+w]; ln.valid && ln.tag == tag {
					c.stats.Hits[dom]++
					if c.policy == LRU && !write {
						c.seq++
						ln.lruSeq = c.seq
						c.seqs[base+w] = c.seq
						ln.meta.LastTouch = now
						ln.meta.RefreshCount = 0
					} else {
						c.touchLine(ln, set, w, write, dom, now)
					}
					return w, true
				}
			}
		}
		c.stats.Misses[dom]++
		return -1, false
	}
	for m := c.enabledMask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.tags[base+w] == tag {
			if ln := &c.lines[base+w]; ln.valid && ln.tag == tag {
				c.stats.Hits[dom]++
				if c.policy == LRU && !write {
					c.seq++
					ln.lruSeq = c.seq
					c.seqs[base+w] = c.seq
					ln.meta.LastTouch = now
					ln.meta.RefreshCount = 0
				} else {
					c.touchLine(ln, set, w, write, dom, now)
				}
				return w, true
			}
		}
	}
	c.stats.Misses[dom]++
	return -1, false
}

// Touch performs the hit-path bookkeeping for a line found by Probe:
// replacement-state update, dirty marking and write-interval stats.
// The caller is responsible for counting the access via CountAccess.
func (c *Cache) Touch(set, way int, write bool, dom trace.Domain, now uint64) {
	c.touchLine(c.line(set, way), set, way, write, dom, now)
}

func (c *Cache) touchLine(ln *line, set, way int, write bool, dom trace.Domain, now uint64) {
	c.seq++
	switch c.policy {
	case LRU, FIFO: // FIFO does not update on hit
		if c.policy == LRU {
			ln.lruSeq = c.seq
			c.seqs[set*c.ways+way] = c.seq
		}
	case Random:
		// no state
	case SRRIP:
		ln.rrpv = 0
	case TreePLRU:
		ln.plruHot = true
		c.maybeClearHotBits(set, way)
	}
	ln.meta.LastTouch = now
	ln.meta.RefreshCount = 0
	if write {
		if ln.meta.WrittenAt <= now {
			c.stats.WriteIntervals[ln.meta.Domain].Observe(now - ln.meta.WrittenAt)
		}
		ln.meta.Dirty = true
		ln.meta.WrittenAt = now
		c.stats.Writes[dom]++
	}
}

// maybeClearHotBits implements bit-PLRU aging: when every enabled
// valid way is hot, all hot bits are cleared except the way that was
// just touched, which stays most-recently-used.
func (c *Cache) maybeClearHotBits(set, keepWay int) {
	for w := 0; w < c.cfg.Ways; w++ {
		if c.enabledMask&(1<<uint(w)) == 0 {
			continue
		}
		ln := c.line(set, w)
		if ln.valid && !ln.plruHot {
			return
		}
	}
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.line(set, w)
		if ln.valid && w != keepWay {
			ln.plruHot = false
		}
	}
}

// CountAccess records an access by domain d, and whether it hit.
func (c *Cache) CountAccess(d trace.Domain, hit bool) {
	c.stats.Accesses[d]++
	if hit {
		c.stats.Hits[d]++
	} else {
		c.stats.Misses[d]++
	}
}

// Fill allocates addr for domain dom, evicting a victim from dom's
// allowed ways if needed, and returns the eviction details.
func (c *Cache) Fill(addr uint64, write bool, dom trace.Domain, now uint64) Result {
	set, tag := c.index(addr)
	allowed := c.domainMask[dom]
	way := c.victim(set, allowed)
	res := Result{Set: set, Way: way}

	ln := c.line(set, way)
	if ln.valid {
		res.Evicted = true
		res.EvictedDirty = ln.meta.Dirty
		res.EvictedAddr = ln.meta.Addr
		res.EvictedDomain = ln.meta.Domain
		res.Interference = ln.meta.Domain != dom
		c.recordEviction(ln, now, res.Interference)
	}

	c.seq++
	c.tags[set*c.ways+way] = tag
	c.seqs[set*c.ways+way] = c.seq
	*ln = line{
		valid:  true,
		tag:    tag,
		lruSeq: c.seq,
		rrpv:   2, // SRRIP long re-reference on insert
		meta: BlockMeta{
			Addr:      c.BlockAddr(addr),
			Domain:    dom,
			Dirty:     write,
			FilledAt:  now,
			WrittenAt: now,
			LastTouch: now,
		},
	}
	if c.policy == TreePLRU {
		ln.plruHot = true
		c.maybeClearHotBits(set, way)
	}
	if write {
		c.stats.Writes[dom]++
	}
	return res
}

func (c *Cache) recordEviction(ln *line, now uint64, interference bool) {
	c.stats.Evictions++
	if ln.meta.Dirty {
		c.stats.Writebacks++
	}
	if interference {
		c.stats.InterferenceEvictions++
	}
	if now >= ln.meta.FilledAt {
		c.stats.Lifetimes[ln.meta.Domain].Observe(now - ln.meta.FilledAt)
	}
}

// victim picks a way among allowed ways: first an invalid one, else by
// policy. It panics if allowed is empty (a masking bug).
func (c *Cache) victim(set int, allowed uint64) int {
	if allowed == 0 {
		panic(fmt.Sprintf("cache %s: victim search with empty way mask", c.cfg.Name))
	}
	base := set * c.ways
	switch c.policy {
	case LRU, FIFO:
		// One min scan over the dense sequence sidecar: invalid ways
		// hold 0, so the prefer-an-invalid-way rule is the same scan
		// (see the seqs field comment), and the row costs two host
		// cache lines instead of a load from every 64-byte line struct.
		seqs := c.seqs[base : base+c.ways : base+c.ways]
		best, bestSeq := -1, ^uint64(0)
		for w := range seqs {
			if allowed&(1<<uint(w)) == 0 {
				continue
			}
			if s := seqs[w]; s < bestSeq {
				best, bestSeq = w, s
			}
		}
		return best
	}
	// Prefer an invalid allowed way; the tags sidecar holds invalidTag
	// exactly for invalid lines, so this scan stays off the line structs.
	for m := allowed; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.tags[base+w] == invalidTag && !c.lines[base+w].valid {
			return w
		}
	}
	switch c.policy {
	case Random:
		// Deterministic pseudo-random pick: hash the sequence counter.
		n := bits.OnesCount64(allowed)
		c.seq++
		k := int((c.seq * 0x9e3779b97f4a7c15 >> 32) % uint64(n))
		for w := 0; w < c.cfg.Ways; w++ {
			if allowed&(1<<uint(w)) == 0 {
				continue
			}
			if k == 0 {
				return w
			}
			k--
		}
	case SRRIP:
		// Age RRPVs until one allowed way reaches the max value.
		for {
			for w := 0; w < c.cfg.Ways; w++ {
				if allowed&(1<<uint(w)) == 0 {
					continue
				}
				if c.line(set, w).rrpv >= 3 {
					return w
				}
			}
			for w := 0; w < c.cfg.Ways; w++ {
				if allowed&(1<<uint(w)) != 0 {
					c.line(set, w).rrpv++
				}
			}
		}
	case TreePLRU:
		// Evict a cold (not recently used) allowed way; fall back to
		// the lowest allowed way when all are hot.
		for w := 0; w < c.cfg.Ways; w++ {
			if allowed&(1<<uint(w)) == 0 {
				continue
			}
			if !c.line(set, w).plruHot {
				return w
			}
		}
		for w := 0; w < c.cfg.Ways; w++ {
			if allowed&(1<<uint(w)) != 0 {
				return w
			}
		}
	}
	panic("cache: victim selection failed") // unreachable for valid policies
}

// Access is the convenience combination Lookup / Fill used by SRAM
// caches (no retention checks).
func (c *Cache) Access(addr uint64, write bool, dom trace.Domain, now uint64) Result {
	set, way, hit := c.Lookup(addr, write, dom, now)
	if hit {
		return Result{Hit: true, Set: set, Way: way}
	}
	return c.Fill(addr, write, dom, now)
}

// Invalidate drops a line, returning whether it was dirty and the block
// address (for writeback). Dropping counts as an eviction for lifetime
// stats only when evict is true.
func (c *Cache) Invalidate(set, way int, now uint64, evict bool) (dirty bool, addr uint64, ok bool) {
	ln := c.line(set, way)
	if !ln.valid {
		return false, 0, false
	}
	dirty, addr = ln.meta.Dirty, ln.meta.Addr
	if evict {
		c.recordEviction(ln, now, false)
	}
	ln.valid = false
	c.tags[set*c.ways+way] = invalidTag
	c.seqs[set*c.ways+way] = 0
	return dirty, addr, true
}

// MarkExpired drops a line whose retention lapsed, counting it in
// ExpiryInvalidations. The (possibly stale) dirty status and address
// are returned so the caller can decide how to account the loss.
func (c *Cache) MarkExpired(set, way int, now uint64) (dirty bool, addr uint64, ok bool) {
	dirty, addr, ok = c.Invalidate(set, way, now, true)
	if ok {
		c.stats.ExpiryInvalidations++
	}
	return dirty, addr, ok
}

// Rewrite refreshes the physical cells of a line (retention restart)
// without changing replacement state, incrementing its idle-refresh
// counter. It returns false for invalid lines.
func (c *Cache) Rewrite(set, way int, now uint64) bool {
	ln := c.line(set, way)
	if !ln.valid {
		return false
	}
	ln.meta.WrittenAt = now
	ln.meta.RefreshCount++
	return true
}

// VisitValid calls fn for every valid line in enabled ways.
func (c *Cache) VisitValid(fn func(set, way int, meta *BlockMeta)) {
	for set := 0; set < c.sets; set++ {
		for w := 0; w < c.cfg.Ways; w++ {
			if c.enabledMask&(1<<uint(w)) == 0 {
				continue
			}
			ln := c.line(set, w)
			if ln.valid {
				fn(set, w, &ln.meta)
			}
		}
	}
}

// FlushWays invalidates every line in the given way mask, invoking wb
// for each dirty line (for writeback accounting). Used before power
// gating ways or handing them to the other domain.
func (c *Cache) FlushWays(mask uint64, now uint64, wb func(addr uint64)) int {
	flushed := 0
	for set := 0; set < c.sets; set++ {
		for w := 0; w < c.cfg.Ways; w++ {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			ln := c.line(set, w)
			if !ln.valid {
				continue
			}
			if ln.meta.Dirty && wb != nil {
				wb(ln.meta.Addr)
				c.stats.Writebacks++
			}
			ln.valid = false
			c.tags[set*c.ways+w] = invalidTag
			c.seqs[set*c.ways+w] = 0
			flushed++
		}
	}
	return flushed
}
