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
	want, err := sim.Run(context.Background(), nil, smaller, prof, 1, 0, 5000, sample.Spec{})
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
	if eng.memo.stats().Entries != 3 {
		t.Fatalf("memo holds %d entries, want 3 distinct content hashes", eng.memo.stats().Entries)
	}
}

// TestMemoBounded: the memo is an LRU with a hard capacity; filling it
// past capacity evicts the least recently used key rather than growing.
func TestMemoBounded(t *testing.T) {
	m := newMemo(3)
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
	if m.stats().Entries != 3 {
		t.Fatalf("memo grew to %d entries past capacity 3", m.stats().Entries)
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
	m := newMemo(2)
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

// TestMemoDefaultCapacity: every engine's memo holds
// DefaultMemoCapacity entries.
func TestMemoDefaultCapacity(t *testing.T) {
	if m := New(Config{}).memo; m.cap != DefaultMemoCapacity {
		t.Fatalf("engine memo cap = %d, want %d", m.cap, DefaultMemoCapacity)
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

// TestMemoShardedBound: filling the memo far past its capacity never
// leaves more entries than the capacity, and evicts.
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
	if st.Evictions == 0 {
		t.Fatalf("%d adds into capacity %d evicted nothing", 10*capacity, capacity)
	}
}

// TestMemoHoldsFullCapacity: a memo of capacity N keeps exactly the N
// most recently added keys, whatever the keys' bytes. The keys here
// share their first eight bytes and differ only past them, so a memo
// that split its capacity by a hash of the leading bytes would keep a
// fraction of N.
func TestMemoHoldsFullCapacity(t *testing.T) {
	const capacity = 64
	m := newMemo(capacity)
	key := func(i int) [32]byte {
		var k [32]byte
		k[8], k[9] = byte(i), byte(i>>8)
		return k
	}
	for i := 0; i < 2*capacity; i++ {
		m.add(key(i), sim.RunReport{Machine: fmt.Sprintf("m%d", i)})
	}
	if st := m.stats(); st.Entries != capacity || st.Evictions != capacity {
		t.Fatalf("memo of capacity %d after %d adds: %+v", capacity, 2*capacity, st)
	}
	for i := 0; i < 2*capacity; i++ {
		r, ok := m.get(key(i))
		if want := i >= capacity; ok != want || (ok && r.Machine != fmt.Sprintf("m%d", i)) {
			t.Errorf("key %d: resident %v (%q), want resident %v", i, ok, r.Machine, want)
		}
	}
}

// TestMemoStatsConcurrent is the -race snapshot check for the memo:
// lookups and adds from many goroutines with Stats() scraped
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
