// Package cache implements the set-associative cache model underlying
// every L2 organization in the simulator, its sizing search and its
// partition monitors. It supports the features the paper's designs need
// on top of a textbook cache:
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
// cycles); the cache never advances time itself. It reaches nothing but
// the lines' time stamps and what reads them: the lifetime and
// write-interval histograms, and the STT-RAM wrappers' retention and
// refresh decisions.
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
	if c.BlockBytes == 1 && sets == 1 {
		// The tag would be the whole address, and the all-ones address
		// would collide with invalidTag.
		return fmt.Errorf("cache %s: 1-byte blocks in a single set leave no offset or index bit", c.Name)
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
// refresh operations through Rewrite. The block address is not stored:
// BlockAddrAt rebuilds it from the line's set and tag.
// BlockMeta fields are ordered widest-first so the struct packs tight.
type BlockMeta struct {
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

// line is the per-way state the dense tags and seqs arrays do not
// hold: the metadata and the SRRIP and tree-PLRU replacement bits. It
// packs to 40 bytes. Its validity, tag and LRU/FIFO sequence live in
// tags and seqs alone.
type line struct {
	meta    BlockMeta
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
	// tags holds slot i's tag, or invalidTag when the slot is empty: a
	// slot is valid exactly when its tag is not invalidTag, and a tag
	// match is a hit. The array is dense, so a whole set's tags share
	// one host cache line and the per-way scan in Lookup/Probe never
	// touches the line structs.
	tags []uint64
	// seqs holds slot i's LRU last-use sequence (FIFO: fill sequence),
	// or 0 when the slot is empty — a valid slot's sequence is always
	// positive because the counter pre-increments. Fill, Invalidate and
	// FlushWays write tags and seqs together, so both agree on which
	// slots are valid. The 0-for-invalid sentinel folds the
	// prefer-an-invalid-way rule into the LRU/FIFO victim's min scan
	// (an invalid way is the global minimum, and the strict < keeps the
	// lowest index on ties); a 16-way row is two host cache lines.
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
		tags:       make([]uint64, sets*cfg.Ways),
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

// invalidTag marks empty slots in tags. No genuine tag can equal it: a
// tag is addr >> (blockShift + index bits), so it has at most 63
// significant bits once the cache has a block-offset or set-index bit,
// and Validate rejects the one geometry without either (1-byte blocks
// in a single set).
const invalidTag = ^uint64(0)

func allWays(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// Stats exposes the counters; callers must treat it as read-only.
func (c *Cache) Stats() *Stats { return &c.stats }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	b := addr >> c.blockShift
	return int(b & c.indexMask), b >> c.tagShift
}

// BlockAddrAt rebuilds the block address of the valid line at (set,
// way) from its set index and tag: the inverse of index.
func (c *Cache) BlockAddrAt(set, way int) uint64 {
	return (c.tags[set*c.ways+way]<<c.tagShift | uint64(set)) << c.blockShift
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
	way = c.find(set*c.ways, tag)
	return set, way, way >= 0
}

// find returns the powered way of the row at base that holds tag, or
// -1. While every way is powered it scans the row sequentially instead
// of walking the enabled-way bitmask.
func (c *Cache) find(base int, tag uint64) int {
	if c.allOn {
		tags := c.tags[base : base+c.ways]
		for w := range tags {
			if tags[w] == tag {
				return w
			}
		}
		return -1
	}
	for m := c.enabledMask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.tags[base+w] == tag {
			return w
		}
	}
	return -1
}

// Meta returns the metadata of a valid line, or nil.
func (c *Cache) Meta(set, way int) *BlockMeta {
	i := set*c.ways + way
	if c.tags[i] == invalidTag {
		return nil
	}
	return &c.lines[i].meta
}

// Lookup is the fused hot-path entry point: Probe + CountAccess +
// Touch in one pass over the set, with a single index computation and
// line dereference. It allocates nothing (the cache benchmarks assert
// 0 allocs/op). On a miss only the access/miss counters are updated;
// the caller decides whether to Fill.
func (c *Cache) Lookup(addr uint64, write bool, dom trace.Domain, now uint64) (set, way int, hit bool) {
	set, tag := c.index(addr)
	base := set * c.ways
	c.stats.Accesses[dom]++
	if way = c.find(base, tag); way < 0 {
		c.stats.Misses[dom]++
		return set, -1, false
	}
	c.stats.Hits[dom]++
	ln := &c.lines[base+way]
	// The dominant case — a read hit under LRU — is touchLine's fast
	// path written out by hand; the combined function is over the
	// inlining budget.
	if c.policy == LRU && !write {
		c.seq++
		c.seqs[base+way] = c.seq
		ln.meta.LastTouch = now
		ln.meta.RefreshCount = 0
	} else {
		c.touchLine(ln, set, way, write, dom, now)
	}
	return set, way, true
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
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.enabledMask&(1<<uint(w)) == 0 {
			continue
		}
		if c.tags[base+w] != invalidTag && !c.lines[base+w].plruHot {
			return
		}
	}
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] != invalidTag && w != keepWay {
			c.lines[base+w].plruHot = false
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

	i := set*c.ways + way
	ln := &c.lines[i]
	if c.tags[i] != invalidTag {
		res.Evicted = true
		res.EvictedDirty = ln.meta.Dirty
		res.EvictedAddr = c.BlockAddrAt(set, way)
		res.EvictedDomain = ln.meta.Domain
		res.Interference = ln.meta.Domain != dom
		c.recordEviction(ln, now, res.Interference)
	}

	c.seq++
	c.tags[i] = tag
	c.seqs[i] = c.seq
	*ln = line{
		rrpv: 2, // SRRIP long re-reference on insert
		meta: BlockMeta{
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
		// One min scan over the dense sequence array: invalid ways hold
		// 0, so the prefer-an-invalid-way rule is the same scan (see the
		// seqs field comment).
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
	// Prefer an invalid allowed way.
	for m := allowed; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.tags[base+w] == invalidTag {
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
	i := set*c.ways + way
	if c.tags[i] == invalidTag {
		return false, 0, false
	}
	ln := &c.lines[i]
	dirty, addr = ln.meta.Dirty, c.BlockAddrAt(set, way)
	if evict {
		c.recordEviction(ln, now, false)
	}
	c.tags[i] = invalidTag
	c.seqs[i] = 0
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
	meta := c.Meta(set, way)
	if meta == nil {
		return false
	}
	meta.WrittenAt = now
	meta.RefreshCount++
	return true
}

// VisitValid calls fn for every valid line in enabled ways.
func (c *Cache) VisitValid(fn func(set, way int, meta *BlockMeta)) {
	for set := 0; set < c.sets; set++ {
		for w := 0; w < c.ways; w++ {
			if c.enabledMask&(1<<uint(w)) == 0 {
				continue
			}
			if meta := c.Meta(set, w); meta != nil {
				fn(set, w, meta)
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
		for w := 0; w < c.ways; w++ {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			i := set*c.ways + w
			if c.tags[i] == invalidTag {
				continue
			}
			if c.lines[i].meta.Dirty && wb != nil {
				wb(c.BlockAddrAt(set, w))
				c.stats.Writebacks++
			}
			c.tags[i] = invalidTag
			c.seqs[i] = 0
			flushed++
		}
	}
	return flushed
}
