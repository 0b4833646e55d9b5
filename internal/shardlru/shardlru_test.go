package shardlru

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// key32 builds a [32]byte key whose hash is its first 8 bytes — the
// same shape (and hash rule) the engine memo uses for checkpoint keys.
func key32(i uint64) [32]byte {
	var k [32]byte
	binary.LittleEndian.PutUint64(k[:8], Mix64(i))
	return k
}

func hash32(k [32]byte) uint64 { return binary.LittleEndian.Uint64(k[:8]) }

func newTest(shards int, budget int64) *Cache[[32]byte, string] {
	return New(Config[[32]byte, string]{Shards: shards, Budget: budget, Hash: hash32})
}

// TestSingleShardExactLRU pins the per-shard replacement policy: with
// one stripe the cache is exactly the global-lock LRU it replaces.
func TestSingleShardExactLRU(t *testing.T) {
	c := newTest(1, 3)
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
	c = newTest(1, 2)
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

// TestShardedBudgetSplit: the shard budgets sum to the configured
// total, and the resident cost never exceeds it no matter how keys
// skew across stripes.
func TestShardedBudgetSplit(t *testing.T) {
	const budget = 10
	c := newTest(4, budget)
	if got := len(c.shards); got != 4 {
		t.Fatalf("Shards = %d, want 4", got)
	}
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].budget
	}
	if sum != budget {
		t.Fatalf("shard budgets sum to %d, want %d", sum, budget)
	}
	for i := uint64(0); i < 100; i++ {
		c.Add(key32(i), "v", 1)
	}
	st := c.Stats()
	if st.CostInUse > budget {
		t.Fatalf("CostInUse %d exceeds budget %d", st.CostInUse, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("100 unit-cost adds into budget 10 evicted nothing")
	}
	resident := 0
	for i := range c.shards {
		resident += len(c.shards[i].entries)
	}
	if st.Entries != resident {
		t.Fatalf("Stats.Entries %d != %d resident entries", st.Entries, resident)
	}
	if st.MaxShardEntries < st.MinShardEntries {
		t.Fatalf("shard skew inverted: max %d < min %d", st.MaxShardEntries, st.MinShardEntries)
	}
}

// TestShardClamping: shard counts round up to powers of two, clamp to
// MaxShards, and never exceed the budget (a zero-budget stripe could
// retain nothing).
func TestShardClamping(t *testing.T) {
	for _, tc := range []struct {
		shards int
		budget int64
		want   int
	}{
		{3, 0, 4},            // round up, unlimited budget
		{16, 16, 16},         // exact
		{16, 3, 2},           // clamped by budget: largest pow2 <= 3
		{1024, 0, MaxShards}, // clamped to MaxShards
		{8, 1, 1},            // one-unit budget degenerates to one stripe
	} {
		c := newTest(tc.shards, tc.budget)
		if got := len(c.shards); got != tc.want {
			t.Errorf("Shards(%d, budget %d) = %d, want %d", tc.shards, tc.budget, got, tc.want)
		}
	}
	if defaultShards() < 1 {
		t.Fatal("defaultShards < 1")
	}
}

// TestDuplicateAdds: racing adds collapse to one entry, the incumbent
// value wins, and the loser is counted so lookup arithmetic
// reconciles.
func TestDuplicateAdds(t *testing.T) {
	c := newTest(4, 0)
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
	c := newTest(1, 10)
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

// TestDemoteBeforeEvict: the Demote hook reclaims cost in place before
// any whole entry is dropped, and a just-committed oversized entry is
// demoted rather than evicted.
func TestDemoteBeforeEvict(t *testing.T) {
	type val struct{ hot int64 }
	demoted := map[uint64]bool{}
	c := New(Config[uint64, *val]{
		Shards: 1,
		Budget: 10,
		Hash:   Mix64,
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
	// must demote the LRU one before anything is evicted.
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
	// An entry alone larger than the whole budget survives commit,
	// demoted to its base cost.
	c2 := New(Config[uint64, *val]{
		Shards: 1, Budget: 3, Hash: Mix64,
		Demote: func(_ uint64, v *val) int64 { r := v.hot; v.hot = 0; return r },
	})
	c2.GetOrReserve(9, &val{hot: 90})
	c2.Commit(9, 100)
	if _, ok := c2.Get(9); !ok {
		t.Fatal("oversized committed entry was evicted")
	}
	if st := c2.Stats(); st.Demotions != 1 || st.CostInUse != 10 {
		t.Fatalf("oversized entry not demoted to base cost: %+v", st)
	}
}

// TestConcurrentStatsConsistency is the -race snapshot check the
// sharded rebase is pinned by: under concurrent lookups, adds and
// scrapes, every mid-flight snapshot keeps its invariants (counters
// monotone, budget respected, skew sane), and the final quiescent
// snapshot reconciles exactly: hits + misses == lookups issued, and
// misses == adds + duplicates for the add-after-miss protocol.
func TestConcurrentStatsConsistency(t *testing.T) {
	const (
		workers = 8
		rounds  = 2000
		keys    = 64
		budget  = 48
	)
	c := newTest(8, budget)
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
				if st.MaxShardEntries < st.MinShardEntries {
					t.Errorf("snapshot skew inverted: %+v", st)
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
				k := key32(uint64((w*rounds + r) % keys))
				if _, ok := c.Get(k); !ok {
					c.Add(k, "v", 1)
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

// TestMix64 sanity: distinct inputs spread, zero is not a fixed point.
func TestMix64(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[h] = true
	}
	if Mix64(0) == 0 {
		t.Fatal("Mix64(0) == 0 would stripe zero-keys onto shard 0 forever")
	}
}

// TestNilHashPanics: a cache without a hash would silently serialize
// on shard 0; construction must refuse it loudly.
func TestNilHashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with nil Hash did not panic")
		}
	}()
	New(Config[int, int]{Shards: 4})
}
