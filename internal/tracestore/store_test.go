package tracestore

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

func testProfile(name string) workload.Profile {
	return workload.Profile{
		Name:             name,
		KernelShare:      0.4,
		UserWorkingSet:   64 * 1024,
		KernelWorkingSet: 32 * 1024,
		UserZipf:         0.9,
		KernelZipf:       0.7,
		UserWriteRatio:   0.2,
		KernelWriteRatio: 0.5,
		IfetchFrac:       0.2,
		UserCodeSet:      16 * 1024,
		KernelCodeSet:    16 * 1024,
		UserBurstMean:    20,
		GapMean:          3,
		Phases:           3,
	}
}

// TestGetMatchesGenerator proves the cached stream is byte-identical
// to what sim.RunWorkload's generator produces for the same inputs.
func TestGetMatchesGenerator(t *testing.T) {
	prof := testProfile("app")
	const n = 20_000
	s := New(0)
	p, err := s.Get(prof, 7, n)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != n {
		t.Fatalf("packed trace has %d records, want %d", p.Len(), n)
	}
	gen, err := workload.NewGenerator(prof, 7, workload.PhaseLen(prof, n))
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Collect(trace.NewLimitSource(gen, n), n)
	cur := p.Cursor()
	for i, w := range want {
		g, ok := cur.Next()
		if !ok || g != w {
			t.Fatalf("record %d = %+v (ok=%v), want %+v", i, g, ok, w)
		}
	}
}

// TestGenerateMatchesArenaShortTraces: workload.Generate and the arena
// split a trace into phases by the same rule (workload.PhaseLen), so
// they produce the same records even for traces shorter than one
// access per phase.
func TestGenerateMatchesArenaShortTraces(t *testing.T) {
	s := New(0)
	for _, prof := range workload.Profiles() {
		for n := 1; n <= 8; n++ {
			want, err := workload.Generate(prof, 3, n)
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.Get(prof, 3, n)
			if err != nil {
				t.Fatal(err)
			}
			cur := p.Cursor()
			if got := trace.Collect(&cur, 0); !reflect.DeepEqual(got, want) {
				t.Errorf("%s n=%d: arena records differ from Generate", prof.Name, n)
			}
		}
	}
}

func TestHitMissStats(t *testing.T) {
	prof := testProfile("app")
	s := New(0)
	if _, err := s.Get(prof, 1, 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(prof, 1, 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(prof, 2, 5000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.Generated != 2 {
		t.Fatalf("stats = %+v, want 2 misses, 1 hit, 2 generated", st)
	}
	if st.Entries != 2 || st.BytesInUse <= 0 {
		t.Fatalf("resident set wrong: %+v", st)
	}
}

// TestSingleFlight is the concurrency guarantee: N goroutines asking
// for one key trigger exactly one generation. Run under -race.
func TestSingleFlight(t *testing.T) {
	prof := testProfile("app")
	s := New(0)
	var generations atomic.Int64
	s.SetGenerateHook(func(Key) { generations.Add(1) })

	const goroutines = 16
	var wg sync.WaitGroup
	packs := make([]*trace.Packed, goroutines)
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, err := s.Get(prof, 3, 30_000)
			if err != nil {
				t.Error(err)
				return
			}
			packs[i] = p
		}(i)
	}
	close(start)
	wg.Wait()

	if n := generations.Load(); n != 1 {
		t.Fatalf("%d generations for one key, want exactly 1", n)
	}
	for i, p := range packs {
		if p != packs[0] {
			t.Fatalf("goroutine %d got a different Packed instance", i)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, goroutines-1)
	}
}

// TestConcurrentDistinctKeys exercises parallel generation of many
// keys under -race.
func TestConcurrentDistinctKeys(t *testing.T) {
	prof := testProfile("app")
	s := New(0)
	var wg sync.WaitGroup
	for seed := uint64(1); seed <= 8; seed++ {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				if _, err := s.Get(prof, seed, 5000); err != nil {
					t.Error(err)
				}
			}(seed)
		}
	}
	wg.Wait()
	st := s.Stats()
	if st.Generated != 8 {
		t.Fatalf("generated %d traces for 8 distinct keys", st.Generated)
	}
}

// TestGetTraceTiers: an unlimited budget keeps the hot decoded form
// alongside the packed streams; a starved budget demotes entries to
// packed-only while they stay resident and replayable. The call that
// generated a demoted trace still gets its own records back; only
// later hits are packed-only.
func TestGetTraceTiers(t *testing.T) {
	prof := testProfile("app")
	const n = 5000

	s := New(0)
	tr, err := s.GetTrace(prof, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Packed == nil || tr.Packed.Len() != n {
		t.Fatalf("packed form missing or truncated: %+v", tr.Packed)
	}
	if len(tr.Records) != n {
		t.Fatalf("hot decoded form has %d records, want %d", len(tr.Records), n)
	}
	// The two forms describe the identical stream.
	cur := tr.Packed.Cursor()
	for i, w := range tr.Records {
		if g, ok := cur.Next(); !ok || g != w {
			t.Fatalf("record %d: packed %+v (ok=%v) != decoded %+v", i, g, ok, w)
		}
	}

	s = New(1)
	tr, err = s.GetTrace(prof, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Packed == nil || tr.Packed.Len() != n {
		t.Fatal("demoted entry lost its packed form")
	}
	if len(tr.Records) != n {
		t.Fatalf("generating call got %d of its %d records back after demotion", len(tr.Records), n)
	}
	cur = tr.Packed.Cursor()
	for i, w := range tr.Records {
		if g, ok := cur.Next(); !ok || g != w {
			t.Fatalf("generated record %d: packed %+v (ok=%v) != returned %+v", i, g, ok, w)
		}
	}
	st := s.Stats()
	if st.Demotions == 0 || st.Entries != 1 {
		t.Fatalf("stats after demotion = %+v", st)
	}
	// A later hit replays the packed form; Trace.Cursor falls back.
	tr2, err := s.GetTrace(prof, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Records != nil || tr2.Packed != tr.Packed {
		t.Fatalf("hit after demotion returned %+v", tr2)
	}
	if src := tr2.Cursor(); src == nil {
		t.Fatal("no cursor for demoted trace")
	} else if _, ok := src.(*trace.Cursor); !ok {
		t.Fatalf("demoted trace cursor is %T, want *trace.Cursor", src)
	}
	if src := (Trace{Packed: tr.Packed, Records: make([]trace.Access, 1)}).Cursor(); src == nil {
		t.Fatal("no cursor for hot trace")
	} else if _, ok := src.(*trace.SliceCursor); !ok {
		t.Fatalf("hot trace cursor is %T, want *trace.SliceCursor", src)
	}
}

// TestLRUEviction pins the eviction order within one stripe (a
// single-shard store is exactly the global-lock LRU the striped store
// replaces); TestShardedStatsConsistency covers the striped budget.
func TestLRUEviction(t *testing.T) {
	prof := testProfile("app")
	s := New(0)
	one, err := s.Get(prof, 1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	per := one.SizeBytes()

	// Budget fits two traces but not three.
	s = NewSharded(2*per+per/2, 1)
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := s.Get(prof, seed, 10_000); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with budget %d and 3 traces of %d bytes", 2*per+per/2, per)
	}
	if st.BytesInUse > 2*per+per/2 {
		t.Fatalf("resident %d bytes exceeds budget", st.BytesInUse)
	}
	// Seed 1 was least recently used; asking again must regenerate.
	misses := st.Misses
	if _, err := s.Get(prof, 1, 10_000); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Misses; got != misses+1 {
		t.Fatalf("evicted trace served from cache (misses %d -> %d)", misses, got)
	}
}

// TestOversizedTraceSurvives: a single trace larger than the budget is
// still returned and retained (the caller is about to replay it).
func TestOversizedTraceSurvives(t *testing.T) {
	prof := testProfile("app")
	s := New(1) // 1 byte budget
	p, err := s.Get(prof, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5000 {
		t.Fatalf("oversized trace truncated: %d records", p.Len())
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("oversized trace not retained: %+v", st)
	}
}

func TestGenerationErrorNotCached(t *testing.T) {
	bad := testProfile("bad")
	bad.UserBurstMean = 0 // fails profile validation
	s := New(0)
	if _, err := s.Get(bad, 1, 1000); err == nil {
		t.Fatal("invalid profile did not error")
	}
	if _, err := s.Get(bad, 1, 1000); err == nil {
		t.Fatal("second Get did not re-report the error")
	}
	if st := s.Stats(); st.Entries != 0 || st.Generated != 0 {
		t.Fatalf("failed generation left state: %+v", st)
	}
	if _, err := s.Get(bad, 1, 0); err == nil {
		t.Fatal("non-positive accesses did not error")
	}
}

// TestContentDigestKeysDistinctProfiles is the staleness regression:
// two profiles sharing a name but differing in content must generate
// two distinct traces — the key's content digest, not the name, is the
// profile's identity.
func TestContentDigestKeysDistinctProfiles(t *testing.T) {
	prof := testProfile("app")
	hot := prof
	hot.KernelShare = 0.7 // same name, different content

	if KeyFor(prof, 7, 5000) == KeyFor(hot, 7, 5000) {
		t.Fatal("content-modified profile produced an equal store key")
	}

	s := New(0)
	a, err := s.Get(prof, 7, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Get(hot, 7, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Generated != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want two generations and no hits", st)
	}
	ca, cb := a.Cursor(), b.Cursor()
	same := true
	for {
		ra, oka := ca.Next()
		rb, okb := cb.Next()
		if oka != okb {
			same = false
			break
		}
		if !oka {
			break
		}
		if ra != rb {
			same = false
			break
		}
	}
	if same {
		t.Fatal("modified profile replayed the stale trace")
	}
}

// DeriveTrace builds a variant once, caches it under the base key plus
// tag (no aliasing with the base trace or other variants), returns the
// build's metadata on hits and misses alike, and deduplicates
// concurrent builds.
func TestDeriveTrace(t *testing.T) {
	prof := testProfile("app")
	const n = 5_000
	s := New(0)

	var builds atomic.Int64
	evens := func(base Trace) (*trace.Packed, []trace.Access, any, error) {
		builds.Add(1)
		var out []trace.Access
		for i, a := range base.Records {
			if i%2 == 0 {
				out = append(out, a)
			}
		}
		return trace.PackSlice(out), out, "meta-evens", nil
	}

	if _, _, err := s.DeriveTrace(prof, 1, n, "", evens); err == nil {
		t.Fatal("empty variant accepted")
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, meta, err := s.DeriveTrace(prof, 1, n, "evens", evens)
			if err != nil {
				t.Error(err)
				return
			}
			if meta != "meta-evens" {
				t.Errorf("meta = %v", meta)
			}
			if len(tr.Records) != n/2 {
				t.Errorf("derived records = %d, want %d", len(tr.Records), n/2)
			}
		}()
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1", got)
	}
	st := s.Stats()
	if st.Derived != 1 {
		t.Fatalf("Derived = %d, want 1", st.Derived)
	}

	// The base trace is untouched and distinct.
	base, err := s.GetTrace(prof, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Records) != n {
		t.Fatalf("base records = %d after derive, want %d", len(base.Records), n)
	}

	// A different variant tag builds separately.
	odds := func(base Trace) (*trace.Packed, []trace.Access, any, error) {
		var out []trace.Access
		for i, a := range base.Records {
			if i%2 == 1 {
				out = append(out, a)
			}
		}
		return trace.PackSlice(out), out, "meta-odds", nil
	}
	_, meta, err := s.DeriveTrace(prof, 1, n, "odds", odds)
	if err != nil {
		t.Fatal(err)
	}
	if meta != "meta-odds" {
		t.Fatalf("odds meta = %v", meta)
	}
	if got := s.Stats().Derived; got != 2 {
		t.Fatalf("Derived = %d, want 2", got)
	}
}

// TestShardedStatsConsistency is the -race snapshot check for the
// striped arena: concurrent warm hits, cold generations and derive
// builds across many keys, with Stats() scraped throughout. Every
// snapshot keeps its invariants (bytes within budget, counters
// monotone, skew coherent) and the quiescent totals reconcile:
// hits + misses == lookups issued.
func TestShardedStatsConsistency(t *testing.T) {
	prof := testProfile("app")
	const (
		workers  = 8
		rounds   = 40
		seeds    = 12
		accesses = 2000
	)
	// Budget sized so demotions and evictions both happen: a few packed
	// traces fit, the hot decoded forms mostly do not.
	probe := New(0)
	p, err := probe.Get(prof, 1, accesses)
	if err != nil {
		t.Fatal(err)
	}
	budget := 6 * p.SizeBytes()
	s := NewSharded(budget, 4)

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
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
			st := s.Stats()
			if st.Hits < last.Hits || st.Misses < last.Misses ||
				st.Evictions < last.Evictions || st.Demotions < last.Demotions ||
				st.Generated < last.Generated {
				t.Errorf("counter went backwards: %+v then %+v", last, st)
			}
			if st.MaxShardEntries < st.MinShardEntries {
				t.Errorf("snapshot skew inverted: %+v", st)
			}
			if st.BytesInUse < 0 {
				t.Errorf("negative BytesInUse: %+v", st)
			}
			last = st
		}
	}()

	var wg sync.WaitGroup
	var lookups atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				seed := uint64((w*rounds+r)%seeds + 1)
				if r%4 == 3 {
					// DeriveTrace's base GetTrace is one lookup, the
					// variant entry another. The build must tolerate a
					// demoted base (nil Records) by decoding packed.
					_, _, err := s.DeriveTrace(prof, seed, accesses, "evens",
						func(base Trace) (*trace.Packed, []trace.Access, any, error) {
							var out []trace.Access
							if base.Records != nil {
								for i, a := range base.Records {
									if i%2 == 0 {
										out = append(out, a)
									}
								}
							} else {
								cur := base.Packed.Cursor()
								for i := 0; ; i++ {
									a, ok := cur.Next()
									if !ok {
										break
									}
									if i%2 == 0 {
										out = append(out, a)
									}
								}
							}
							return trace.PackSlice(out), out, nil, nil
						})
					if err != nil {
						t.Error(err)
						return
					}
					lookups.Add(2)
				} else {
					if _, err := s.GetTrace(prof, seed, accesses); err != nil {
						t.Error(err)
						return
					}
					lookups.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	st := s.Stats()
	if got := st.Hits + st.Misses; got != lookups.Load() {
		t.Fatalf("hits %d + misses %d = %d, want %d lookups", st.Hits, st.Misses, got, lookups.Load())
	}
	if st.BytesInUse > budget {
		t.Fatalf("BytesInUse %d exceeds budget %d", st.BytesInUse, budget)
	}
	if st.Generated == 0 || st.Derived == 0 {
		t.Fatalf("expected both base and derived builds: %+v", st)
	}
}
