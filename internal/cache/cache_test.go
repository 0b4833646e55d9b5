package cache

import (
	"math/bits"
	"testing"
	"testing/quick"

	"mobilecache/internal/trace"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

// occupancyByDomain counts valid lines per domain (enabled ways only).
func occupancyByDomain(c *Cache) [trace.NumDomains]int {
	var occ [trace.NumDomains]int
	c.VisitValid(func(_, _ int, meta *BlockMeta) {
		occ[meta.Domain]++
	})
	return occ
}

// validLines counts all valid lines in enabled ways.
func validLines(c *Cache) int {
	occ := occupancyByDomain(c)
	return occ[trace.User] + occ[trace.Kernel]
}

func smallCfg() Config {
	return Config{Name: "t", SizeBytes: 4 * 1024, Ways: 4, BlockBytes: 64, Policy: LRU}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{Name: "w0", SizeBytes: 4096, Ways: 0, BlockBytes: 64},
		{Name: "w65", SizeBytes: 65 * 64 * 2, Ways: 65, BlockBytes: 64},
		{Name: "b0", SizeBytes: 4096, Ways: 4, BlockBytes: 0},
		{Name: "b63", SizeBytes: 4096, Ways: 4, BlockBytes: 63},
		{Name: "s0", SizeBytes: 0, Ways: 4, BlockBytes: 64},
		{Name: "odd", SizeBytes: 4096 + 64, Ways: 4, BlockBytes: 64},
		{Name: "np2", SizeBytes: 3 * 4 * 64, Ways: 4, BlockBytes: 64}, // 3 sets
		{Name: "pol", SizeBytes: 4096, Ways: 4, BlockBytes: 64, Policy: PolicyKind(99)},
	}
	for _, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %s accepted, want error", cfg.Name)
		}
	}
}

func TestConfigSets(t *testing.T) {
	cfg := smallCfg() // 4KB / (4*64) = 16 sets
	if got := cfg.Sets(); got != 16 {
		t.Fatalf("sets = %d, want 16", got)
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := mustNew(t, smallCfg())
	r := c.Access(0x1000, false, trace.User, 1)
	if r.Hit {
		t.Fatal("cold access hit")
	}
	r = c.Access(0x1000, false, trace.User, 2)
	if !r.Hit {
		t.Fatal("second access missed")
	}
	// Same block, different offset -> hit.
	r = c.Access(0x1038, false, trace.User, 3)
	if !r.Hit {
		t.Fatal("same-block access missed")
	}
	st := c.Stats()
	if st.Accesses[trace.User] != 3 || st.Hits[trace.User] != 2 || st.Misses[trace.User] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, smallCfg())  // 16 sets, 4 ways
	setStride := uint64(16 * 64) // same set every stride
	// Fill 4 ways of set 0.
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, false, trace.User, i)
	}
	// Touch block 0 to make block 1 the LRU.
	c.Access(0, false, trace.User, 10)
	// Fill a 5th block; it must evict block 1.
	r := c.Access(4*setStride, false, trace.User, 11)
	if !r.Evicted {
		t.Fatal("full set fill did not evict")
	}
	if r.EvictedAddr != setStride {
		t.Fatalf("evicted %#x, want %#x (the LRU)", r.EvictedAddr, setStride)
	}
	// Block 0 must still be present.
	if _, _, ok := c.Probe(0); !ok {
		t.Fatal("recently used block was evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustNew(t, smallCfg())
	setStride := uint64(16 * 64)
	c.Access(0, true, trace.User, 1) // dirty fill
	for i := uint64(1); i < 5; i++ { // evict it
		c.Access(i*setStride, false, trace.User, i+1)
	}
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestStoreHitMarksDirty(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0x40, false, trace.User, 1)
	c.Access(0x40, true, trace.User, 2)
	set, way, ok := c.Probe(0x40)
	if !ok {
		t.Fatal("block missing")
	}
	if !c.Meta(set, way).Dirty {
		t.Fatal("store hit did not mark line dirty")
	}
}

func TestInterferenceAccounting(t *testing.T) {
	c := mustNew(t, smallCfg())
	setStride := uint64(16 * 64)
	// User fills all 4 ways of set 0.
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, false, trace.User, i)
	}
	// Kernel allocates into the same set -> evicts a user block.
	r := c.Access(100*setStride, false, trace.Kernel, 10)
	if !r.Evicted || !r.Interference {
		t.Fatalf("cross-domain eviction not flagged: %+v", r)
	}
	if c.Stats().InterferenceEvictions != 1 {
		t.Fatalf("interference evictions = %d, want 1", c.Stats().InterferenceEvictions)
	}
	// Kernel evicting kernel is not interference.
	for i := uint64(101); i < 105; i++ {
		c.Access(i*setStride, false, trace.Kernel, i)
	}
	st := c.Stats()
	if st.InterferenceEvictions >= st.Evictions {
		t.Fatalf("all evictions flagged as interference: %+v", st)
	}
}

func TestDomainMaskPartitioning(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.SetDomainMask(trace.User, 0b0011)
	c.SetDomainMask(trace.Kernel, 0b1100)
	setStride := uint64(16 * 64)
	for i := uint64(0); i < 8; i++ {
		c.Access(i*setStride, false, trace.User, i)
		c.Access((100+i)*setStride, false, trace.Kernel, i)
	}
	// With disjoint masks there can be no interference evictions.
	if n := c.Stats().InterferenceEvictions; n != 0 {
		t.Fatalf("partitioned cache had %d interference evictions", n)
	}
	// Each domain's blocks only in its ways.
	c.VisitValid(func(_, way int, meta *BlockMeta) {
		if meta.Domain == trace.User && way > 1 {
			t.Fatalf("user block in way %d outside mask", way)
		}
		if meta.Domain == trace.Kernel && way < 2 {
			t.Fatalf("kernel block in way %d outside mask", way)
		}
	})
}

func TestSetEnabledMaskGatesWays(t *testing.T) {
	c := mustNew(t, smallCfg())
	setStride := uint64(16 * 64)
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, false, trace.User, i)
	}
	// Gate ways 2,3: their contents must be flushed first by callers;
	// Probe must not hit in gated ways regardless.
	c.FlushWays(0b1100, 10, nil)
	c.SetEnabledMask(0b0011)
	if bits.OnesCount64(c.enabledMask) != 2 {
		t.Fatalf("enabled ways = %d, want 2", bits.OnesCount64(c.enabledMask))
	}
	hits := 0
	for i := uint64(0); i < 4; i++ {
		if _, _, ok := c.Probe(i * setStride); ok {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("probes hit %d blocks after gating, want 2", hits)
	}
	// Domain masks clipped to enabled ways.
	if c.domainMask[trace.User]&^c.EnabledMask() != 0 {
		t.Fatal("domain mask extends into gated ways")
	}
}

func TestSetEnabledMaskPanics(t *testing.T) {
	c := mustNew(t, smallCfg())
	for _, mask := range []uint64{0, 1 << 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetEnabledMask(%#x) did not panic", mask)
				}
			}()
			c.SetEnabledMask(mask)
		}()
	}
}

func TestSetDomainMaskPanicsWhenEmpty(t *testing.T) {
	c := mustNew(t, smallCfg())
	defer func() {
		if recover() == nil {
			t.Error("empty domain mask accepted")
		}
	}()
	c.SetDomainMask(trace.User, 0)
}

func TestFlushWaysWritesBackDirty(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0x40, true, trace.User, 1)
	c.Access(0x80, false, trace.User, 2)
	var wb []uint64
	n := c.FlushWays(allWays(4), 3, func(addr uint64) { wb = append(wb, addr) })
	if n != 2 {
		t.Fatalf("flushed %d lines, want 2", n)
	}
	if len(wb) != 1 || wb[0] != 0x40 {
		t.Fatalf("writebacks = %#v, want [0x40]", wb)
	}
	if validLines(c) != 0 {
		t.Fatal("lines remain after flush")
	}
}

func TestInvalidate(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0x40, true, trace.User, 1)
	set, way, ok := c.Probe(0x40)
	if !ok {
		t.Fatal("fill missing")
	}
	dirty, addr, ok := c.Invalidate(set, way, 2, false)
	if !ok || !dirty || addr != 0x40 {
		t.Fatalf("invalidate = (%v,%#x,%v)", dirty, addr, ok)
	}
	if _, _, ok := c.Probe(0x40); ok {
		t.Fatal("block survives invalidation")
	}
	// Second invalidate reports not-ok.
	if _, _, ok := c.Invalidate(set, way, 3, false); ok {
		t.Fatal("double invalidate reported ok")
	}
}

func TestMarkExpiredCountsExpiry(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0x40, false, trace.User, 1)
	set, way, _ := c.Probe(0x40)
	if _, _, ok := c.MarkExpired(set, way, 5); !ok {
		t.Fatal("expire failed")
	}
	if c.Stats().ExpiryInvalidations != 1 {
		t.Fatalf("expiry invalidations = %d, want 1", c.Stats().ExpiryInvalidations)
	}
}

func TestRewriteUpdatesWrittenAt(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0x40, false, trace.User, 1)
	set, way, _ := c.Probe(0x40)
	if !c.Rewrite(set, way, 99) {
		t.Fatal("rewrite failed on valid line")
	}
	if got := c.Meta(set, way).WrittenAt; got != 99 {
		t.Fatalf("WrittenAt = %d, want 99", got)
	}
	c.Invalidate(set, way, 100, false)
	if c.Rewrite(set, way, 101) {
		t.Fatal("rewrite succeeded on invalid line")
	}
}

func TestLifetimeAndWriteIntervalStats(t *testing.T) {
	c := mustNew(t, smallCfg())
	setStride := uint64(16 * 64)
	c.Access(0, true, trace.User, 0)
	c.Access(0, true, trace.User, 100) // write interval 100
	for i := uint64(1); i < 5; i++ {   // evict block 0 at t=200+
		c.Access(i*setStride, false, trace.User, 200+i)
	}
	lt := c.Stats().Lifetimes[trace.User]
	if lt.Total != 1 {
		t.Fatalf("lifetime samples = %d, want 1", lt.Total)
	}
	wi := c.Stats().WriteIntervals[trace.User]
	if wi.Total != 1 {
		t.Fatalf("write interval samples = %d, want 1", wi.Total)
	}
	if wi.CDFBelow(6) != 0 || wi.CDFBelow(7) != 1 { // 100 is in [64,128)
		t.Fatalf("write interval CDF wrong: below64=%g below128=%g", wi.CDFBelow(6), wi.CDFBelow(7))
	}
}

func TestMissRateHelpers(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0x40, false, trace.User, 1)
	c.Access(0x40, false, trace.User, 2)
	c.Access(0x1040, false, trace.Kernel, 3)
	st := c.Stats()
	if st.TotalAccesses() != 3 || st.TotalMisses() != 2 {
		t.Fatalf("totals = %d/%d", st.TotalAccesses(), st.TotalMisses())
	}
	if mr := st.MissRate(); mr < 0.66 || mr > 0.67 {
		t.Fatalf("miss rate = %g, want 2/3", mr)
	}
	if st.DomainMissRate(trace.User) != 0.5 {
		t.Fatalf("user miss rate = %g, want 0.5", st.DomainMissRate(trace.User))
	}
	if st.DomainMissRate(trace.Kernel) != 1 {
		t.Fatalf("kernel miss rate = %g, want 1", st.DomainMissRate(trace.Kernel))
	}
}

func TestOccupancyByDomain(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0x40, false, trace.User, 1)
	c.Access(0x80, false, trace.User, 2)
	c.Access(0xffff0000, false, trace.Kernel, 3)
	occ := occupancyByDomain(c)
	if occ[trace.User] != 2 || occ[trace.Kernel] != 1 {
		t.Fatalf("occupancy = %v", occ)
	}
	if validLines(c) != 3 {
		t.Fatalf("valid lines = %d, want 3", validLines(c))
	}
}

func TestBlockAddr(t *testing.T) {
	c := mustNew(t, smallCfg())
	if got := c.BlockAddr(0x1234); got != 0x1200 {
		t.Fatalf("BlockAddr(0x1234) = %#x, want 0x1200", got)
	}
}

// Property: a cache never reports more hits than accesses, and
// hits+misses == accesses, under arbitrary access streams.
func TestAccountingInvariant(t *testing.T) {
	f := func(addrs []uint32, writes []bool, domBits []bool) bool {
		c, err := New(smallCfg())
		if err != nil {
			return false
		}
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			d := trace.User
			if i < len(domBits) && domBits[i] {
				d = trace.Kernel
			}
			c.Access(uint64(a), w, d, uint64(i))
		}
		st := c.Stats()
		for _, d := range []trace.Domain{trace.User, trace.Kernel} {
			if st.Hits[d]+st.Misses[d] != st.Accesses[d] {
				return false
			}
		}
		return st.TotalAccesses() == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: valid lines never exceed enabled capacity, and every
// block's domain respects its allocation mask.
func TestCapacityAndMaskInvariant(t *testing.T) {
	f := func(addrs []uint32, domBits []bool) bool {
		c, err := New(smallCfg())
		if err != nil {
			return false
		}
		c.SetDomainMask(trace.User, 0b0111)
		c.SetDomainMask(trace.Kernel, 0b1000)
		for i, a := range addrs {
			d := trace.User
			if i < len(domBits) && domBits[i] {
				d = trace.Kernel
			}
			c.Access(uint64(a), false, d, uint64(i))
		}
		if validLines(c) > c.sets*bits.OnesCount64(c.enabledMask) {
			return false
		}
		ok := true
		c.VisitValid(func(_, way int, meta *BlockMeta) {
			if c.domainMask[meta.Domain]&(1<<uint(way)) == 0 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeating the same trace twice on a big-enough cache makes
// the second pass all hits (LRU cache with capacity >= footprint).
func TestSecondPassHits(t *testing.T) {
	c := mustNew(t, Config{Name: "big", SizeBytes: 64 * 1024, Ways: 8, BlockBytes: 64, Policy: LRU})
	addrs := make([]uint64, 0, 256)
	for i := uint64(0); i < 256; i++ {
		addrs = append(addrs, i*64)
	}
	now := uint64(0)
	for _, a := range addrs {
		now++
		c.Access(a, false, trace.User, now)
	}
	before := c.Stats().Hits[trace.User]
	for _, a := range addrs {
		now++
		r := c.Access(a, false, trace.User, now)
		if !r.Hit {
			t.Fatalf("second pass missed %#x", a)
		}
	}
	if c.Stats().Hits[trace.User] != before+uint64(len(addrs)) {
		t.Fatal("hit accounting wrong on second pass")
	}
}

func TestAllPoliciesRunAndStayConsistent(t *testing.T) {
	for pol := PolicyKind(0); pol < numPolicies; pol++ {
		cfg := smallCfg()
		cfg.Policy = pol
		c := mustNew(t, cfg)
		for i := uint64(0); i < 5000; i++ {
			addr := (i * 2654435761) % (64 * 1024)
			d := trace.User
			if i%3 == 0 {
				d = trace.Kernel
			}
			c.Access(addr, i%5 == 0, d, i)
		}
		st := c.Stats()
		if st.TotalAccesses() != 5000 {
			t.Fatalf("%v: accesses = %d", pol, st.TotalAccesses())
		}
		if st.Hits[trace.User]+st.Misses[trace.User] != st.Accesses[trace.User] {
			t.Fatalf("%v: inconsistent user accounting", pol)
		}
		if validLines(c) > c.sets*c.cfg.Ways {
			t.Fatalf("%v: overfull cache", pol)
		}
	}
}

func TestPolicyNamesRoundTrip(t *testing.T) {
	for pol := PolicyKind(0); pol < numPolicies; pol++ {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Fatalf("ParsePolicy(%q) = %v, %v", pol.String(), got, err)
		}
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Fatal("unknown policy name accepted")
	}
	if PolicyKind(99).Valid() {
		t.Fatal("policy 99 claims valid")
	}
	if PolicyKind(99).String() != "policy(99)" {
		t.Fatal("invalid policy string wrong")
	}
}

func TestLRUBeatsRandomOnLoopingWorkload(t *testing.T) {
	// Sanity: on a working set slightly exceeding capacity accessed
	// cyclically plus a hot subset, LRU and Random should both work but
	// neither should crash; on a hot-set heavy stream LRU must be at
	// least as good as FIFO. This guards against policies being wired
	// to the wrong update hooks.
	run := func(pol PolicyKind) float64 {
		cfg := Config{Name: "p", SizeBytes: 8 * 1024, Ways: 4, BlockBytes: 64, Policy: pol}
		c := mustNew(t, cfg)
		now := uint64(0)
		for rep := 0; rep < 200; rep++ {
			for i := uint64(0); i < 16; i++ { // hot set fits easily
				now++
				c.Access(i*64, false, trace.User, now)
			}
			now++
			c.Access(uint64(0x10000+rep*64), false, trace.User, now) // cold stream
		}
		return c.Stats().MissRate()
	}
	lru, fifo := run(LRU), run(FIFO)
	if lru > fifo+1e-9 {
		t.Fatalf("LRU miss rate %g worse than FIFO %g on LRU-friendly stream", lru, fifo)
	}
}
