package cache

import (
	"testing"
	"testing/quick"

	"mobilecache/internal/sample"
	"mobilecache/internal/trace"
)

// missCurve returns MissesWith(w) for w = 0..ways.
func missCurve(st *ShadowTags) []uint64 {
	curve := make([]uint64, st.ways+1)
	for w := 0; w <= st.ways; w++ {
		curve[w] = st.MissesWith(w)
	}
	return curve
}

func TestShadowTagsBasics(t *testing.T) {
	st := NewShadowTagsSampled(16, 4, 64, 0, nil)
	// Two accesses to the same block in the same set: first misses,
	// second hits at stack position 0.
	st.Access(0x0)
	st.Access(0x0)
	if st.Accesses() != 2 {
		t.Fatalf("accesses = %d, want 2", st.Accesses())
	}
	if st.MissesWith(4) != 1 {
		t.Fatalf("misses(4) = %d, want 1", st.MissesWith(4))
	}
	if st.HitsAtOrBefore(1) != 1 {
		t.Fatalf("hits@<=1 = %d, want 1", st.HitsAtOrBefore(1))
	}
}

func TestShadowTagsStackPositions(t *testing.T) {
	st := NewShadowTagsSampled(16, 4, 64, 0, nil)
	stride := uint64(16 * 64) // same set
	// Access A, B, C then A again: A hits at stack position 2.
	st.Access(0 * stride)
	st.Access(1 * stride)
	st.Access(2 * stride)
	st.Access(0 * stride)
	if st.HitsAtOrBefore(2) != 0 {
		t.Fatalf("hits with 2 ways = %d, want 0", st.HitsAtOrBefore(2))
	}
	if st.HitsAtOrBefore(3) != 1 {
		t.Fatalf("hits with 3 ways = %d, want 1", st.HitsAtOrBefore(3))
	}
	// Miss curve must be monotone non-increasing.
	curve := missCurve(st)
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatalf("miss curve not monotone: %v", curve)
		}
	}
	if curve[0] != st.Accesses() {
		t.Fatalf("misses with 0 ways = %d, want all %d", curve[0], st.Accesses())
	}
}

func TestShadowTagsEvictBeyondWays(t *testing.T) {
	st := NewShadowTagsSampled(16, 2, 64, 0, nil)
	stride := uint64(16 * 64)
	st.Access(0 * stride)
	st.Access(1 * stride)
	st.Access(2 * stride) // evicts tag 0
	st.Access(0 * stride) // miss again
	if st.MissesWith(2) != 4 {
		t.Fatalf("misses = %d, want 4 (capacity eviction)", st.MissesWith(2))
	}
}

func TestShadowTagsSampling(t *testing.T) {
	st := NewShadowTagsSampled(16, 4, 64, 2, nil) // sample 1 in 4 sets
	for set := uint64(0); set < 16; set++ {
		st.Access(set * 64)
	}
	if st.Accesses() != 4 {
		t.Fatalf("sampled accesses = %d, want 4", st.Accesses())
	}
	st.Access(0)
	if st.Accesses() != 5 {
		t.Fatal("set 0 must be sampled")
	}
	st.Access(64)
	if st.Accesses() != 5 {
		t.Fatal("set 1 must not be sampled at shift 2")
	}
}

func TestShadowTagsHalveAndReset(t *testing.T) {
	st := NewShadowTagsSampled(16, 4, 64, 0, nil)
	for i := 0; i < 10; i++ {
		st.Access(0)
	}
	st.Halve()
	if st.Accesses() != 5 {
		t.Fatalf("halved accesses = %d, want 5", st.Accesses())
	}
	// Halving keeps the tags: the next access still hits.
	misses := st.MissesWith(4)
	st.Access(0)
	if st.MissesWith(4) != misses {
		t.Fatal("halve cleared the tags")
	}
}

func TestShadowTagsPanicsOnBadGeometry(t *testing.T) {
	cases := []struct{ sets, ways, block int }{
		{0, 4, 64}, {3, 4, 64}, {16, 0, 64}, {16, 4, 0}, {16, 4, 48},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShadowTagsSampled(%d,%d,%d) did not panic", tc.sets, tc.ways, tc.block)
				}
			}()
			NewShadowTagsSampled(tc.sets, tc.ways, tc.block, 0, nil)
		}()
	}
}

// Property: the shadow directory's miss estimate at full associativity
// matches a real LRU cache of the same geometry (no sampling).
func TestShadowTagsMatchRealLRUCache(t *testing.T) {
	f := func(addrs []uint16) bool {
		const sets, ways, block = 8, 4, 64
		st := NewShadowTagsSampled(sets, ways, block, 0, nil)
		c, err := New(Config{Name: "ref", SizeBytes: sets * ways * block, Ways: ways, BlockBytes: block, Policy: LRU})
		if err != nil {
			return false
		}
		realMisses := uint64(0)
		for i, a := range addrs {
			addr := uint64(a)
			st.Access(addr)
			r := c.Access(addr, false, trace.User, uint64(i))
			if !r.Hit {
				realMisses++
			}
		}
		return st.MissesWith(ways) == realMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the miss curve is monotone non-increasing in ways for any
// access pattern (more capacity never hurts under LRU stack inclusion).
func TestMissCurveMonotone(t *testing.T) {
	f := func(addrs []uint32) bool {
		st := NewShadowTagsSampled(16, 8, 64, 0, nil)
		for _, a := range addrs {
			st.Access(uint64(a))
		}
		curve := missCurve(st)
		for i := 1; i < len(curve); i++ {
			if curve[i] > curve[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDomainMonitors(t *testing.T) {
	dm := NewDomainMonitorsSampled(16, 4, 64, 0, nil)
	dm.Access(0x0, trace.User)
	dm.Access(0x0, trace.User)
	dm.Access(0x40, trace.Kernel)
	if dm.Mon[trace.User].Accesses() != 2 {
		t.Fatalf("user monitor accesses = %d, want 2", dm.Mon[trace.User].Accesses())
	}
	if dm.Mon[trace.Kernel].Accesses() != 1 {
		t.Fatalf("kernel monitor accesses = %d, want 1", dm.Mon[trace.Kernel].Accesses())
	}
	dm.Halve()
	if dm.Mon[trace.User].Accesses() != 1 {
		t.Fatal("halve did not propagate")
	}
}

func TestLog2Hist(t *testing.T) {
	var h Log2Hist
	h.Observe(0)
	h.Observe(1)
	h.Observe(100)
	if h.Total != 3 {
		t.Fatalf("total = %d, want 3", h.Total)
	}
	if h.Mean() <= 0 {
		t.Fatal("mean should be positive")
	}
	if h.CDFBelow(39) != 1 {
		t.Fatalf("full CDF = %g, want 1", h.CDFBelow(39))
	}
	var empty Log2Hist
	if empty.Mean() != 0 || empty.CDFBelow(5) != 0 {
		t.Fatal("empty hist should report zeros")
	}
}

// Regression: in sampled mode the monitor subsampling must follow the
// live (selected) sets, not the nominal geometry. Under hash selection
// the old predicate set&(2^shift-1)==0 leaves most monitored sets in
// never-selected groups — permanently silent — starving the dynamic
// controller's miss curves. The sampled constructor instead monitors
// 1-in-2^shift of the live sets exactly.
func TestShadowTagsSampledFollowsLiveSets(t *testing.T) {
	const sets, ways, block = 1024, 8, 64
	const shift = 3
	for _, hash := range []bool{false, true} {
		sel, err := sample.NewSelector(sample.Spec{Factor: 8, Hash: hash}, block)
		if err != nil {
			t.Fatal(err)
		}
		st := NewShadowTagsSampled(sets, ways, block, shift, sel)
		liveSets := sel.LiveSets(sets)
		if got, want := len(st.entries), liveSets>>shift; got != want {
			t.Fatalf("hash %v: %d monitored sets allocated, want %d (liveSets %d >> %d)", hash, got, want, liveSets, shift)
		}
		// One access to every live set: exactly liveSets>>shift land in
		// monitored sets, and every monitored set sees its access (no
		// silent monitors).
		for set := uint64(0); set < sets; set++ {
			if sel.GroupRank(int(set)&(sample.NumGroups-1)) >= 0 {
				st.Access(set * block)
			}
		}
		if got, want := st.Accesses(), uint64(liveSets>>shift); got != want {
			t.Fatalf("hash %v: monitors observed %d accesses, want %d", hash, got, want)
		}
		for i, tags := range st.entries {
			if len(tags) != 1 {
				t.Fatalf("hash %v: monitored set %d holds %d tags, want 1 (silent monitor)", hash, i, len(tags))
			}
		}
		// Traffic to non-live sets is ignored even if it arrives.
		before := st.Accesses()
		for set := uint64(0); set < sets; set++ {
			if sel.GroupRank(int(set)&(sample.NumGroups-1)) < 0 {
				st.Access(set * block)
			}
		}
		if st.Accesses() != before {
			t.Fatalf("hash %v: non-live traffic was counted", hash)
		}
	}
}

// A factor-1 selector must reduce the sampled constructor to the plain
// one: identical counters and miss curves over an arbitrary stream.
func TestShadowTagsSampledFactorOneEquivalence(t *testing.T) {
	sel, err := sample.NewSelector(sample.Spec{Factor: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	f := func(addrs []uint32) bool {
		plain := NewShadowTagsSampled(128, 4, 64, 2, nil)
		sampled := NewShadowTagsSampled(128, 4, 64, 2, sel)
		for _, a := range addrs {
			plain.Access(uint64(a))
			sampled.Access(uint64(a))
		}
		if plain.Accesses() != sampled.Accesses() {
			return false
		}
		pc, sc := missCurve(plain), missCurve(sampled)
		for i := range pc {
			if pc[i] != sc[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDomainMonitorsSampled(t *testing.T) {
	sel, err := sample.NewSelector(sample.Spec{Factor: 8, Hash: true}, 64)
	if err != nil {
		t.Fatal(err)
	}
	dm := NewDomainMonitorsSampled(1024, 8, 64, 3, sel)
	for _, d := range []trace.Domain{trace.User, trace.Kernel} {
		if dm.Mon[d].sel != sel {
			t.Fatalf("domain %v monitor not wired to selector", d)
		}
	}
	// Sampled shadow tags panic on geometries finer than the group count.
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 64-set sampled shadow tags")
		}
	}()
	NewShadowTagsSampled(64, 4, 64, 0, sel)
}
