// Contention harness of the lock-striped caching layer. Both hot
// caches — the engine run memo and the trace arena — used to serialize
// every lookup on one global mutex; internal/shardlru stripes them
// across per-shard locks. The helpers here hammer a warm memo and a
// warm arena with many goroutines in the access pattern a sweep
// produces (each worker looks up its own cells' keys) and report
// wall-clock throughput plus the aggregate mutex wait (runtime/metrics
// "/sync/mutex/wait/total:seconds") accrued during the hammer.
// BENCH_PR7.json records the global-lock vs sharded measurement.
//
// TestContentionSmoke is the structural gate CI runs (tiny op counts,
// no throughput or wait thresholds — machine speed is not a pass/fail
// criterion): it proves the harness and both cache shapes still hold
// together. BenchmarkMemoLookupGlobal/Sharded are the go-test-native
// views of the same contention.
package mobilecache

import (
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"mobilecache/internal/shardlru"
	"mobilecache/internal/sim"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

const (
	// contentionGoroutines is the hammer width: comfortably past any
	// -jobs setting the front ends ship with.
	contentionGoroutines = 32
	// contentionShards is the shard count of the striped memo arm of
	// the benchmark (run it with -cpu 32).
	contentionShards = 32
	// contentionMemoKeysPerWorker spaces the workers' keys apart in the
	// warm population; the memo holds every worker's slice, so the
	// measurement never misses or evicts.
	contentionMemoKeysPerWorker = 32
	// contentionArenaAccesses is each warm trace's length — small, so
	// warming is cheap and the per-op cost is lock-dominated, which is
	// the point.
	contentionArenaAccesses = 10_000
	// contentionArenaProfiles x contentionArenaSeeds = one warm trace
	// per hammer: every worker replays its own cell's trace, the
	// pattern a sweep's grid produces.
	contentionArenaProfiles = 8
	contentionArenaSeeds    = 4
)

// mutexWaitSeconds reads the runtime's cumulative count of time
// goroutines have spent blocked on sync.Mutex/RWMutex. Deltas around a
// hammer isolate the wait its cache locks caused.
func mutexWaitSeconds() float64 {
	s := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// hammer runs workers goroutines, each performing ops calls of op, and
// returns the aggregate operations per second plus the mutex wait
// accrued during the run. op receives the worker index and iteration
// so it can derive a deterministic per-worker key stream without
// shared RNG state (which would itself contend).
func hammer(workers, ops int, op func(worker, i int)) (opsPerSec, lockWait float64) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < ops; i++ {
				op(g, i)
			}
		}(g)
	}
	waitBefore := mutexWaitSeconds()
	begin := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(begin)
	return float64(workers*ops) / elapsed.Seconds(), mutexWaitSeconds() - waitBefore
}

// warmMemoShape builds a memo-shaped cache (cost 1 per entry, report
// values) with the given stripe count and prefills every worker's key
// stream, so the hammer measures pure warm-hit lookups.
func warmMemoShape(tb testing.TB, shards, workers int) *shardlru.Cache[uint64, sim.RunReport] {
	tb.Helper()
	keys := workers * contentionMemoKeysPerWorker
	c := shardlru.New(shardlru.Config[uint64, sim.RunReport]{
		Shards: shards,
		Budget: int64(2 * keys),
		Hash:   shardlru.Mix64,
	})
	for k := 0; k < keys; k++ {
		c.Add(uint64(k), sim.RunReport{Machine: "bench", Workload: "bench"}, 1)
	}
	if got := c.Len(); got != keys {
		tb.Fatalf("warm memo holds %d entries, want %d", got, keys)
	}
	return c
}

// memoKey is worker g's current cell's key: a sweep worker re-consults
// the memo for its own cell, so the hot keys are disjoint across
// workers (not a shared random mix, which would collide workers onto
// each other's shards regardless of striping).
func memoKey(g, _ int) uint64 {
	return uint64(g * contentionMemoKeysPerWorker)
}

// memoContention hammers a warm memo-shaped cache with per-worker key
// streams and returns throughput and accrued lock wait.
func memoContention(tb testing.TB, shards, workers, ops int) (float64, float64) {
	c := warmMemoShape(tb, shards, workers)
	return hammer(workers, ops, func(g, i int) {
		if _, ok := c.Get(memoKey(g, i)); !ok {
			panic("contention bench: warm memo key missing")
		}
	})
}

// arenaCell is worker g's pinned (profile, seed) cell.
func arenaCell(profiles []workload.Profile, g int) (workload.Profile, uint64) {
	return profiles[g%len(profiles)], 1 + uint64(g/len(profiles))%contentionArenaSeeds
}

// warmArena builds a trace arena with the given stripe count and an
// unlimited budget (no demotion or eviction noise), warmed with every
// worker's trace.
func warmArena(tb testing.TB, shards, workers int) (*tracestore.Store, []workload.Profile) {
	tb.Helper()
	store := tracestore.NewSharded(0, shards)
	profiles := workload.Profiles()[:contentionArenaProfiles]
	for g := 0; g < workers; g++ {
		p, seed := arenaCell(profiles, g)
		if _, err := store.GetTrace(p, seed, contentionArenaAccesses); err != nil {
			tb.Fatal(err)
		}
	}
	return store, profiles
}

// arenaContention hammers a warm arena with GetTrace calls — the exact
// call the engine makes per cell, including the shard-locked read of
// the hot decoded slice — each worker on its own cell's trace.
func arenaContention(tb testing.TB, shards, workers, ops int) (float64, float64) {
	store, profiles := warmArena(tb, shards, workers)
	return hammer(workers, ops, func(g, i int) {
		p, seed := arenaCell(profiles, g)
		if _, err := store.GetTrace(p, seed, contentionArenaAccesses); err != nil {
			panic(err)
		}
	})
}

// BenchmarkMemoLookupGlobal / BenchmarkMemoLookupSharded are the
// go-test-native views of the same contention (use -cpu=32):
//
//	go test -bench 'MemoLookup' -cpu 32 .
func BenchmarkMemoLookupGlobal(b *testing.B)  { benchMemoLookup(b, 1) }
func BenchmarkMemoLookupSharded(b *testing.B) { benchMemoLookup(b, contentionShards) }

func benchMemoLookup(b *testing.B, shards int) {
	c := warmMemoShape(b, shards, contentionGoroutines)
	keys := uint64(contentionGoroutines * contentionMemoKeysPerWorker)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := uint64(0)
		for pb.Next() {
			x = shardlru.Mix64(x)
			c.Get(x % keys)
		}
	})
}

// TestContentionSmoke is the CI gate: a miniature pass over both cache
// shapes. No throughput or wait assertions — those depend on the
// runner — so it cannot flake on a loaded machine; it verifies
// structure (warm caches serve every hammered key, the hit arithmetic
// reconciles).
func TestContentionSmoke(t *testing.T) {
	const workers, ops = 4, 200
	for _, shards := range []int{1, 4} {
		if v, _ := memoContention(t, shards, workers, ops); v <= 0 {
			t.Fatalf("memo shards=%d: ops/sec = %v, want > 0", shards, v)
		}
		if v, _ := arenaContention(t, shards, workers, ops); v <= 0 {
			t.Fatalf("arena shards=%d: ops/sec = %v, want > 0", shards, v)
		}
	}
	// The warm memo hammer must account every lookup as a hit; re-run
	// one small pass on an inspectable cache to check the arithmetic.
	c := warmMemoShape(t, 4, workers)
	hammer(workers, ops, func(g, i int) {
		c.Get(memoKey(g, i))
	})
	st := c.Stats()
	if st.Hits != uint64(workers*ops) {
		t.Fatalf("warm hammer: %d hits, want %d (misses %d)", st.Hits, workers*ops, st.Misses)
	}
}
