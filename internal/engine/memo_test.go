package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/workload"
)

// TestMemoContentHashNoStaleness is the regression test for the bug
// the engine memo fixes: the old experiments run-cache keyed on names,
// so a machine config or app profile modified under an unchanged name
// was served a stale report. The memo keys on the content hash, so
// the perturbed inputs must produce a genuinely different report.
func TestMemoContentHashNoStaleness(t *testing.T) {
	eng := New(Config{})
	cfg, err := sim.MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.Profiles()[0]
	cell := Cell{Machine: cfg.Name, Config: cfg, App: prof.Name, Profile: prof, Seed: 1}
	base, err := eng.RunOneSampled(context.Background(), cell, 5000, 0, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}

	// Same names, different config content: halve the L2 ways (deep
	// copy — Machine holds its segments by pointer).
	smaller := cfg
	seg := *cfg.Unified
	seg.Ways /= 2
	smaller.Unified = &seg
	got, err := eng.RunOneSampled(context.Background(), Cell{
		Machine: cfg.Name, Config: smaller, App: prof.Name, Profile: prof, Seed: 1,
	}, 5000, 0, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(got, base) {
		t.Fatal("modified config under the same name was served the stale cached report")
	}
	want, err := sim.Run(nil, smaller, prof, 1, 0, 5000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("modified-config report diverges from direct simulation")
	}

	// Same names, different profile content: shift the kernel share.
	hotKernel := prof
	hotKernel.KernelShare = prof.KernelShare + 0.2
	got2, err := eng.RunOneSampled(context.Background(), Cell{
		Machine: cfg.Name, Config: cfg, App: prof.Name, Profile: hotKernel, Seed: 1,
	}, 5000, 0, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(got2, base) {
		t.Fatal("modified profile under the same name was served the stale cached report")
	}
	if eng.memo.len() != 3 {
		t.Fatalf("memo holds %d entries, want 3 distinct content hashes", eng.memo.len())
	}
}

// TestMemoBounded: the memo is an LRU with a hard capacity; filling it
// past capacity evicts the least recently used key rather than growing.
// A single stripe pins the exact global-LRU order the pre-shard memo
// had; TestMemoShardedBound covers the striped capacity split.
func TestMemoBounded(t *testing.T) {
	m := newMemoSharded(3, 1)
	key := func(i int) [32]byte {
		var k [32]byte
		k[0] = byte(i)
		return k
	}
	rep := func(i int) sim.RunReport {
		return sim.RunReport{Machine: fmt.Sprintf("m%d", i)}
	}
	for i := 0; i < 5; i++ {
		m.add(key(i), rep(i))
	}
	if m.len() != 3 {
		t.Fatalf("memo grew to %d entries past capacity 3", m.len())
	}
	for i := 0; i < 2; i++ {
		if _, ok := m.get(key(i)); ok {
			t.Errorf("key %d should have been evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if r, ok := m.get(key(i)); !ok || r.Machine != fmt.Sprintf("m%d", i) {
			t.Errorf("key %d missing or wrong after fill", i)
		}
	}
}

// TestMemoLRUTouchOnGet: a get refreshes recency, changing which key
// the next insertion evicts.
func TestMemoLRUTouchOnGet(t *testing.T) {
	m := newMemoSharded(2, 1)
	var a, b, c [32]byte
	a[0], b[0], c[0] = 1, 2, 3
	m.add(a, sim.RunReport{Machine: "a"})
	m.add(b, sim.RunReport{Machine: "b"})
	if _, ok := m.get(a); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	m.add(c, sim.RunReport{Machine: "c"}) // evicts b
	if _, ok := m.get(b); ok {
		t.Error("b should have been evicted after a was touched")
	}
	if _, ok := m.get(a); !ok {
		t.Error("a should have survived")
	}
}

// TestMemoDisabled: negative capacity turns memoization off entirely.
func TestMemoDisabled(t *testing.T) {
	m := newMemo(-1)
	var k [32]byte
	m.add(k, sim.RunReport{Machine: "x"})
	if _, ok := m.get(k); ok {
		t.Fatal("disabled memo returned a hit")
	}
	if m.len() != 0 {
		t.Fatalf("disabled memo holds %d entries", m.len())
	}

	eng := New(Config{MemoCapacity: -1})
	cfg, err := sim.MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.Profiles()[0]
	cell := Cell{Machine: cfg.Name, Config: cfg, App: prof.Name, Profile: prof, Seed: 1}
	if _, err := eng.RunOneSampled(context.Background(), cell, 2000, 0, sample.Spec{}); err != nil {
		t.Fatal(err)
	}
	sum, err := eng.Execute(context.Background(),
		Plan{Cells: []Cell{cell}, Accesses: 2000}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Memoized != 0 {
		t.Fatal("memo-disabled engine reported a memo hit")
	}
}

// TestMemoDefaultCapacity: zero means the default, not unbounded and
// not disabled.
func TestMemoDefaultCapacity(t *testing.T) {
	if m := newMemo(0); m.cap != DefaultMemoCapacity {
		t.Fatalf("newMemo(0).cap = %d, want %d", m.cap, DefaultMemoCapacity)
	}
}

// TestMemoDuplicates: two workers racing one cell both simulate and
// both add; the second add must collapse onto the incumbent and be
// counted, so lookup/entry arithmetic reconciles in /metrics.
func TestMemoDuplicates(t *testing.T) {
	m := newMemo(8)
	var k [32]byte
	k[0] = 1
	m.add(k, sim.RunReport{Machine: "first"})
	m.add(k, sim.RunReport{Machine: "second"})
	st := m.stats()
	if st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", st.Duplicates)
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d after duplicate add, want 1", st.Entries)
	}
	if r, ok := m.get(k); !ok || r.Machine != "first" {
		t.Fatalf("duplicate add replaced the incumbent: %+v ok=%v", r, ok)
	}
}

// TestMemoShardedBound: with the default stripe count the capacity is
// split across shards; total entries never exceed the capacity and the
// stats aggregate stays coherent with the per-shard occupancy.
func TestMemoShardedBound(t *testing.T) {
	const capacity = 64
	m := newMemo(capacity)
	key := func(i int) [32]byte {
		var k [32]byte
		k[0], k[1], k[2] = byte(i), byte(i>>8), byte(i>>16)
		return k
	}
	for i := 0; i < 10*capacity; i++ {
		m.add(key(i), sim.RunReport{})
	}
	st := m.stats()
	if st.Entries > capacity {
		t.Fatalf("memo holds %d entries past capacity %d", st.Entries, capacity)
	}
	if st.Shards < 1 || st.MaxShardEntries < st.MinShardEntries {
		t.Fatalf("shard occupancy incoherent: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("%d adds into capacity %d evicted nothing", 10*capacity, capacity)
	}
}

// TestMemoStatsConcurrent is the -race snapshot check for the sharded
// memo: lookups and adds from many goroutines with Stats() scraped
// throughout; every snapshot keeps the capacity bound and monotone
// counters, and the quiescent totals reconcile exactly.
func TestMemoStatsConcurrent(t *testing.T) {
	const (
		workers  = 8
		rounds   = 1500
		distinct = 48
		capacity = 32
	)
	m := newMemo(capacity)
	key := func(i int) [32]byte {
		var k [32]byte
		k[0], k[1] = byte(i), byte(i>>8)
		return k
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		var last MemoStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := m.stats()
			if st.Entries > capacity {
				t.Errorf("snapshot holds %d entries past capacity %d", st.Entries, capacity)
			}
			if st.Hits < last.Hits || st.Misses < last.Misses || st.Evictions < last.Evictions {
				t.Errorf("counter went backwards: %+v then %+v", last, st)
			}
			last = st
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := key((w*rounds + r) % distinct)
				if _, ok := m.get(k); !ok {
					m.add(k, sim.RunReport{})
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	st := m.stats()
	if got := st.Hits + st.Misses; got != workers*rounds {
		t.Fatalf("hits %d + misses %d = %d, want %d lookups", st.Hits, st.Misses, got, workers*rounds)
	}
	if adds := st.Misses - st.Duplicates; adds != st.Evictions+uint64(st.Entries) {
		t.Fatalf("adds %d != evictions %d + entries %d", adds, st.Evictions, st.Entries)
	}
}
