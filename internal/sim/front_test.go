package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"mobilecache/internal/cache"
	"mobilecache/internal/config"
	"mobilecache/internal/sample"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// TestFrontKeyAliasing runs, back to back on one store, replays that
// differ from the one before in exactly one front-key field: the L1I
// geometry, the L1D geometry, the prefetcher, the sampling spec, the
// idle cadence, and the warmup split at a fixed trace length. Every
// replay must DeepEqual its nil-store run, so a key that forgot a
// field would hand a replay the front output of the one before it.
func TestFrontKeyAliasing(t *testing.T) {
	base, err := MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	l1i := base.Clone()
	l1i.L1I.Ways = 4
	l1d := l1i.Clone()
	l1d.L1D.Ways = 2
	pf := l1d.Clone()
	pf.Prefetch = true
	idle := pf.Clone()
	idle.IdleEvery, idle.IdleCycles = 1000, 50_000

	const total = 50_000
	steps := []struct {
		field  string
		cfg    config.Machine
		spec   sample.Spec
		warmup int
	}{
		{"base", base, sample.Spec{}, 0},
		{"l1i", l1i, sample.Spec{}, 0},
		{"l1d", l1d, sample.Spec{}, 0},
		{"prefetch", pf, sample.Spec{}, 0},
		{"sample", pf, sample.Spec{Factor: 8}, 0},
		{"warmup", pf, sample.Spec{Factor: 8}, 20_000},
		{"idle", idle, sample.Spec{Factor: 8}, 20_000},
	}
	prof := workload.Profiles()[0]
	store := tracestore.New(0)
	for _, s := range steps {
		want, err := Run(context.Background(), nil, s.cfg, prof, 3, s.warmup, total-s.warmup, s.spec)
		if err != nil {
			t.Fatalf("%s: nil store: %v", s.field, err)
		}
		got, err := Run(context.Background(), store, s.cfg, prof, 3, s.warmup, total-s.warmup, s.spec)
		if err != nil {
			t.Fatalf("%s: shared store: %v", s.field, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a replay differing from the one before only in its %s diverges from its nil-store run", s.cfg.Name, s.field)
		}
	}
	// One front output per step, and no trace or filtered trace: no
	// step found another's.
	if st := store.Stats(); st.Derived != uint64(len(steps)) || st.Generated != st.Derived {
		t.Fatalf("store built %d entries (%d derived), want %d front outputs and nothing else", st.Generated, st.Derived, len(steps))
	}
}

// TestSharedFrontBuildCount pins how often a sweep runs the L1 stage:
// the seven standard machines share one front key, so 7 machines x 3
// apps on one store build exactly 3 front outputs, and a prefetch-on
// machine, whose front stage differs, adds one per app. Each build
// reads the generator, so the arena holds the outputs and no trace.
func TestSharedFrontBuildCount(t *testing.T) {
	store := tracestore.New(0)
	apps := workload.Profiles()[:3]
	run := func(cfg config.Machine) {
		for _, prof := range apps {
			if _, err := Run(context.Background(), store, cfg, prof, 1, 0, 20_000, sample.Spec{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, cfg := range StandardMachines() {
		run(cfg)
	}
	if st := store.Stats(); st.Derived != 3 || st.Generated != 3 || st.Entries != 3 {
		t.Fatalf("7 machines x 3 apps: %d built (%d derived), %d resident; want 3 front outputs and no trace", st.Generated, st.Derived, st.Entries)
	}
	pf, err := MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	pf.Prefetch = true
	run(pf)
	if st := store.Stats(); st.Derived != 6 || st.Generated != 6 || st.Entries != 6 {
		t.Fatalf("adding a prefetch-on machine: %d built (%d derived), %d resident; want 6 front outputs and no trace", st.Generated, st.Derived, st.Entries)
	}
}

// TestArenaHoldsOnlyFrontOutputs pins what a sweep leaves in the
// arena: the 7 standard machines x 3 apps, exact and again at 1/8, on
// one store leave exactly the six front outputs — one per (app, spec)
// — resident, and the arena charges exactly their sizes: no trace,
// base or sample-filtered, is held beside them.
func TestArenaHoldsOnlyFrontOutputs(t *testing.T) {
	store := tracestore.New(0)
	apps := workload.Profiles()[:3]
	specs := []sample.Spec{{}, {Factor: 8}}
	const seed, accesses = 4, 20_000
	for _, spec := range specs {
		for _, cfg := range StandardMachines() {
			for _, prof := range apps {
				if _, err := Run(context.Background(), store, cfg, prof, seed, 0, accesses, spec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	st := store.Stats()
	var want int64
	for _, spec := range specs {
		m, err := BuildSampled(StandardMachines()[0], spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, prof := range apps {
			out, _, err := sharedFront(store, m, prof, seed, accesses, 0)
			if err != nil {
				t.Fatal(err)
			}
			want += out.SizeBytes()
		}
	}
	if st.Entries != 6 || st.Generated != 6 || st.Derived != 6 {
		t.Fatalf("7 machines x 3 apps x {exact, 1/8}: %d resident, %d built (%d derived); want the 6 front outputs alone", st.Entries, st.Generated, st.Derived)
	}
	if st.BytesInUse != want {
		t.Fatalf("arena charges %d bytes, want the 6 front outputs' %d", st.BytesInUse, want)
	}
}

// TestSharedFrontConcurrentReaders runs the seven standard machines at
// once on one store, exact and then 1/8-sampled: one of them builds the
// shared front output while the others wait for it, then all replay it
// through their own back stages concurrently. Each report must
// DeepEqual its nil-store run, which for the sampled machines also
// checks the filter statistics the stored entry carries. Under -race
// this is the check on the stored output's sharing.
func TestSharedFrontConcurrentReaders(t *testing.T) {
	prof := workload.Profiles()[2]
	const seed, accesses = 9, 20_000
	machines := StandardMachines()
	store := tracestore.New(0)
	for n, spec := range []sample.Spec{{}, {Factor: 8}} {
		want := make([]RunReport, len(machines))
		for i, cfg := range machines {
			rep, err := Run(context.Background(), nil, cfg, prof, seed, 0, accesses, spec)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = rep
		}
		got := make([]RunReport, len(machines))
		errs := make([]error, len(machines))
		var wg sync.WaitGroup
		for i, cfg := range machines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = Run(context.Background(), store, cfg, prof, seed, 0, accesses, spec)
			}()
		}
		wg.Wait()
		for i, cfg := range machines {
			if errs[i] != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, spec, errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s/%s: concurrent shared-front replay diverges from its nil-store run", cfg.Name, spec)
			}
		}
		if st := store.Stats(); st.Derived != uint64(n+1) {
			t.Fatalf("%s: seven concurrent machines built %d front outputs in all, want %d", spec, st.Derived, n+1)
		}
	}
}

// TestL2StreamMatchesBackStage checks L2Stream against the back stage
// it describes. For every standard machine, with the prefetcher off
// and on, the stream's records per domain must number the audited
// report's L2 accesses for the same app, seed and length. On
// baseline-sram, replaying the stream through a standalone LRU cache
// of its L2's geometry must also reproduce the report's L2 hits and
// misses per domain: that is the premise of E3's sizing baseline.
func TestL2StreamMatchesBackStage(t *testing.T) {
	prof := workload.Profiles()[0]
	const seed, accesses = 5, 60_000
	store := tracestore.New(0)
	for _, prefetch := range []bool{false, true} {
		for _, cfg := range StandardMachines() {
			cfg.Prefetch = prefetch
			rep, err := Run(context.Background(), nil, cfg, prof, seed, 0, accesses, sample.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			stream, err := L2Stream(store, cfg, prof, seed, accesses)
			if err != nil {
				t.Fatal(err)
			}
			var n [trace.NumDomains]uint64
			for _, a := range stream {
				n[a.Domain]++
			}
			if n != rep.L2.Accesses {
				t.Errorf("%s prefetch=%v: stream has %v records per domain, the report %v L2 accesses", cfg.Name, prefetch, n, rep.L2.Accesses)
			}
			if cfg.Name != "baseline-sram" {
				continue
			}
			seg, err := cfg.Unified.ToCore()
			if err != nil {
				t.Fatal(err)
			}
			c, err := cache.New(cache.Config{SizeBytes: seg.SizeBytes, Ways: seg.Ways, BlockBytes: seg.BlockBytes, Policy: seg.Policy})
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range stream {
				c.Access(a.Addr, a.Op.IsWrite(), a.Domain, uint64(i+1))
			}
			if st := c.Stats(); st.Hits != rep.L2.Hits || st.Misses != rep.L2.Misses {
				t.Errorf("%s prefetch=%v: the stream through a standalone cache hits/misses %v/%v, the report %v/%v",
					cfg.Name, prefetch, st.Hits, st.Misses, rep.L2.Hits, rep.L2.Misses)
			}
		}
	}
}
