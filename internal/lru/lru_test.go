package lru

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// key32 builds a [32]byte key, the shape of the engine memo's
// checkpoint keys.
func key32(i uint64) [32]byte {
	var k [32]byte
	binary.LittleEndian.PutUint64(k[:8], i)
	return k
}

func newTest(budget int64) *Cache[[32]byte, string] {
	return New(Config[[32]byte, string]{Budget: budget})
}

// TestSingleShardExactLRU pins the replacement policy: the cache is
// an exact LRU over every key it holds.
func TestSingleShardExactLRU(t *testing.T) {
	c := newTest(3)
	for i := uint64(0); i < 5; i++ {
		c.Add(key32(i), fmt.Sprint(i), 1)
	}
	if n := c.Stats().Entries; n != 3 {
		t.Fatalf("%d entries past budget 3", n)
	}
	for i := uint64(0); i < 2; i++ {
		if _, ok := c.Get(key32(i)); ok {
			t.Errorf("key %d should have been evicted", i)
		}
	}
	for i := uint64(2); i < 5; i++ {
		if v, ok := c.Get(key32(i)); !ok || v != fmt.Sprint(i) {
			t.Errorf("key %d missing or wrong after fill", i)
		}
	}
	// A Get refreshes recency: touch the LRU survivor, then overflow —
	// the untouched one must go first.
	c = newTest(2)
	a, b, d := key32(1), key32(2), key32(3)
	c.Add(a, "a", 1)
	c.Add(b, "b", 1)
	if _, ok := c.Get(a); !ok {
		t.Fatal("a missing")
	}
	c.Add(d, "d", 1)
	if _, ok := c.Get(b); ok {
		t.Error("b should have been evicted after a was touched")
	}
	if _, ok := c.Get(a); !ok {
		t.Error("a should have survived")
	}
}

// TestDuplicateAdds: racing adds collapse to one entry, the incumbent
// value wins, and the loser is counted so lookup arithmetic
// reconciles.
func TestDuplicateAdds(t *testing.T) {
	c := newTest(0)
	k := key32(7)
	if !c.Add(k, "first", 1) {
		t.Fatal("first Add rejected")
	}
	if c.Add(k, "second", 1) {
		t.Fatal("duplicate Add claimed insertion")
	}
	if v, _ := c.Get(k); v != "first" {
		t.Fatalf("duplicate add replaced the incumbent: %q", v)
	}
	if st := c.Stats(); st.Duplicates != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 duplicate, 1 entry", st)
	}
}

// TestReserveCommitDelete covers the two-phase insertion protocol:
// reservations are visible and joinable but uncharged and
// undemotable; Commit charges and links; Delete refunds.
func TestReserveCommitDelete(t *testing.T) {
	c := newTest(10)
	k := key32(1)
	v, reserved := c.GetOrReserve(k, "building")
	if !reserved || v != "building" {
		t.Fatalf("GetOrReserve = (%q, %v), want reservation", v, reserved)
	}
	// A second caller joins the reservation as a hit.
	v2, reserved2 := c.GetOrReserve(k, "other")
	if reserved2 || v2 != "building" {
		t.Fatalf("joiner got (%q, %v), want the in-flight value", v2, reserved2)
	}
	if st := c.Stats(); st.CostInUse != 0 || st.Entries != 1 {
		t.Fatalf("reservation charged or invisible: %+v", st)
	}
	if !c.Commit(k, 4) {
		t.Fatal("Commit rejected")
	}
	if c.Commit(k, 4) {
		t.Fatal("double Commit accepted")
	}
	if st := c.Stats(); st.CostInUse != 4 {
		t.Fatalf("CostInUse = %d after commit, want 4", st.CostInUse)
	}
	if !c.Delete(k) {
		t.Fatal("Delete rejected")
	}
	if st := c.Stats(); st.CostInUse != 0 || st.Entries != 0 {
		t.Fatalf("Delete left state: %+v", st)
	}
	// Failed build: reservation deleted uncommitted, nothing charged.
	c.GetOrReserve(k, "doomed")
	if !c.Delete(k) {
		t.Fatal("reservation Delete rejected")
	}
	if c.Commit(k, 1) {
		t.Fatal("Commit of a deleted reservation accepted")
	}
	if st := c.Stats(); st.CostInUse != 0 || st.Entries != 0 {
		t.Fatalf("aborted reservation left state: %+v", st)
	}
}

// TestDemoteBeforeEvict: the Demote hook reclaims cost in place, least
// recently used first, before any whole entry is dropped; and the
// budget binds: a just-committed entry alone larger than the budget is
// demoted first, then evicted.
func TestDemoteBeforeEvict(t *testing.T) {
	type val struct{ hot int64 }
	demoted := map[uint64]bool{}
	c := New(Config[uint64, *val]{
		Budget: 10,
		Demote: func(k uint64, v *val) int64 {
			r := v.hot
			v.hot = 0
			if r > 0 {
				demoted[k] = true
			}
			return r
		},
	})
	// Two entries of cost 5 (4 hot + 1 base) fill the budget; a third
	// must demote the older two before anything is evicted.
	for k := uint64(1); k <= 2; k++ {
		c.GetOrReserve(k, &val{hot: 4})
		c.Commit(k, 5)
	}
	c.GetOrReserve(3, &val{hot: 4})
	c.Commit(3, 5)
	st := c.Stats()
	if st.Demotions == 0 {
		t.Fatalf("no demotions: %+v", st)
	}
	if st.Evictions != 0 {
		t.Fatalf("evicted before exhausting demotion: %+v", st)
	}
	if st.CostInUse > 10 {
		t.Fatalf("CostInUse %d over budget", st.CostInUse)
	}
	if !demoted[1] || !demoted[2] || demoted[3] {
		t.Fatalf("demoted %v, want the two older entries and not the new one", demoted)
	}
	// An entry alone larger than the whole budget is demoted to its base
	// cost, and evicted when that still exceeds the budget; its caller
	// already holds the value.
	c2 := New(Config[uint64, *val]{
		Budget: 3,
		Demote: func(_ uint64, v *val) int64 { r := v.hot; v.hot = 0; return r },
	})
	c2.GetOrReserve(9, &val{hot: 90})
	if !c2.Commit(9, 100) {
		t.Fatal("Commit rejected")
	}
	if st := c2.Stats(); st.Demotions != 1 || st.Evictions != 1 || st.CostInUse != 0 || st.Entries != 0 {
		t.Fatalf("oversized entry not demoted, then evicted: %+v", st)
	}
	if _, ok := c2.Get(9); ok {
		t.Fatal("oversized committed entry stayed resident over budget")
	}
}

// TestConcurrentStatsConsistency is the -race snapshot check: under
// concurrent lookups, adds and scrapes, every mid-flight snapshot keeps
// its invariants (counters monotone, budget respected even though some
// keys cost more than the whole budget), and the final quiescent
// snapshot reconciles exactly: hits + misses == lookups issued, and
// misses == adds + duplicates for the add-after-miss protocol.
func TestConcurrentStatsConsistency(t *testing.T) {
	const (
		workers = 8
		rounds  = 2000
		keys    = 64
		budget  = 48
	)
	c := newTest(budget)
	var wg sync.WaitGroup
	start := make(chan struct{})
	stop := make(chan struct{})

	// Scrapers run throughout, checking invariants on every snapshot.
	var scrapeWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			var last Stats
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Stats()
				if st.CostInUse > budget {
					t.Errorf("snapshot CostInUse %d exceeds budget %d", st.CostInUse, budget)
				}
				if st.Hits < last.Hits || st.Misses < last.Misses ||
					st.Evictions < last.Evictions || st.Duplicates < last.Duplicates {
					t.Errorf("counter went backwards: %+v then %+v", last, st)
				}
				last = st
			}
		}()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				i := uint64((w*rounds + r) % keys)
				k := key32(i)
				if _, ok := c.Get(k); !ok {
					cost := int64(1)
					if i%16 == 15 {
						cost = budget + 1
					}
					c.Add(k, "v", cost)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	st := c.Stats()
	lookups := uint64(workers * rounds)
	if st.Hits+st.Misses != lookups {
		t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, lookups)
	}
	// Every miss triggered exactly one Add attempt; each attempt either
	// inserted or counted a duplicate. Inserts still resident plus
	// evictions plus... inserts = misses - duplicates.
	inserts := st.Misses - st.Duplicates
	if inserts != st.Evictions+uint64(st.Entries) {
		t.Fatalf("inserts %d != evictions %d + entries %d", inserts, st.Evictions, st.Entries)
	}
	if st.CostInUse > budget {
		t.Fatalf("final CostInUse %d exceeds budget %d", st.CostInUse, budget)
	}
}
