package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mobilecache/internal/config"
	"mobilecache/internal/sample"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// TestStoreReplayMatchesGenerator is the arena's correctness contract:
// replaying a stored front output through every standard machine
// yields a RunReport identical — CPU result, L2 stats, energy buckets,
// DRAM traffic, partition history — to the arena-free,
// generator-driven Run for the same (profile, seed, accesses), and
// runs the trace through the L1s once: the seven machines share one
// front key, so the first builds the one derived entry straight from
// the generator, storing no trace, and the other six read it back.
func TestStoreReplayMatchesGenerator(t *testing.T) {
	store := tracestore.New(0)
	// A phased standard profile exercises the phase-length derivation;
	// use full multi-phase behaviour and both domains.
	prof := workload.Profiles()[0]
	const seed, accesses = 11, 60_000

	for _, name := range StandardMachineNames() {
		cfg, err := MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(context.Background(), nil, cfg, prof, seed, 0, accesses, sample.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), store, cfg, prof, seed, 0, accesses, sample.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: cached replay diverges from generator run:\n generator: %+v\n cached:    %+v", name, want, got)
		}
	}
	st := store.Stats()
	if st.Generated != 1 || st.Derived != 1 {
		t.Fatalf("store built %d entries (%d derived) for one (profile, seed); want one front output and no trace", st.Generated, st.Derived)
	}
	if st.Hits != uint64(len(StandardMachineNames())-1) {
		t.Fatalf("store hits = %d, want %d", st.Hits, len(StandardMachineNames())-1)
	}
}

// TestStoreDemotedReplayMatchesGenerator covers an arena too small for
// what it builds. A 1-byte budget binds: every front output is evicted
// by its own commit, after the run that built it has it in hand, so
// the arena holds nothing and every run — each machine exact, then
// 1/8-sampled — builds its own. Each report must still DeepEqual its
// generator-driven run.
func TestStoreDemotedReplayMatchesGenerator(t *testing.T) {
	store := tracestore.New(1)
	prof := workload.Profiles()[1]
	const seed, accesses = 13, 40_000
	runs := 0
	for _, name := range []string{"baseline-sram", "sp-mr", "dp-sr"} {
		cfg, err := MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []sample.Spec{{}, {Factor: 8}} {
			want, err := Run(context.Background(), nil, cfg, prof, seed, 0, accesses, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(context.Background(), store, cfg, prof, seed, 0, accesses, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: replay from an evicting arena diverges from generator run", name, spec)
			}
			runs++
		}
	}
	st := store.Stats()
	if st.Generated != uint64(runs) || st.Derived != uint64(runs) || st.Hits != 0 {
		t.Fatalf("%d runs under a 1-byte budget: %d built (%d derived), %d hits; want one front output built per run and no hit", runs, st.Generated, st.Derived, st.Hits)
	}
	if st.Evictions != uint64(runs) || st.Entries != 0 || st.BytesInUse != 0 {
		t.Fatalf("%d runs under a 1-byte budget: %d evictions, %d resident (%d bytes); want every output evicted", runs, st.Evictions, st.Entries, st.BytesInUse)
	}
}

// TestStoreWarmReplayMatchesGenerator covers the warmup+measure path.
func TestStoreWarmReplayMatchesGenerator(t *testing.T) {
	store := tracestore.New(0)
	prof := workload.Profiles()[0]
	cfg, err := MachineByName("sp-mr")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), nil, cfg, prof, 5, 20_000, 30_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), store, cfg, prof, 5, 20_000, 30_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("warm cached replay diverges:\n generator: %+v\n cached:    %+v", want, got)
	}
}

// TestRunWorkloadFromNilStore: a nil store drives the generator
// directly and measures exactly the requested accesses.
func TestRunWorkloadFromNilStore(t *testing.T) {
	cfg, err := MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), nil, cfg, smallProfile(), 3, 0, 10_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPU.Accesses != 10_000 {
		t.Fatalf("nil-store run replayed %d accesses", rep.CPU.Accesses)
	}
}

// TestRunArenaMatchesGenerator pins every branch of Run. On every
// standard machine, and on baseline-sram with the prefetcher on, with
// idle stretches and with 16-way L1s, cold and warm, exact and
// 1/8-sampled (exact only for the wide L1s, which have too few sets to
// sample), a replay from an unlimited arena, which keeps every front
// output, and from a 1-byte one, which keeps none, must DeepEqual the
// arena-free run, which drives the generator through both stages of
// the hierarchy and filters it live when sampled, where the arena
// replays a stored front output through the back stage; every run is
// audited. Exact runs must measure exactly the requested accesses. The
// DeepEqual cannot see a branch both sides share, so the test also
// checks that a cold dynamic-design run keeps the epoch-0 allocation
// in History (a warm replay with an empty prefix would trim it).
func TestRunArenaMatchesGenerator(t *testing.T) {
	prof := workload.Profiles()[0]
	const seed, accesses = 17, 30_000
	base, err := MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	pf := base.Clone()
	pf.Name, pf.Prefetch = "baseline-sram+prefetch", true
	idle := base.Clone()
	idle.Name, idle.IdleEvery, idle.IdleCycles = "baseline-sram+idle", 1000, 100_000
	wide := base.Clone()
	wide.Name = "baseline-sram+16-way-l1"
	wide.L1I = config.L1{SizeKB: 32, Ways: 16, BlockBytes: 64}
	wide.L1D = wide.L1I
	machines := append(StandardMachines(), pf, idle, wide)
	for _, budget := range []int64{0, 1} {
		store := tracestore.New(budget)
		for _, cfg := range machines {
			specs := []sample.Spec{{}, {Factor: 8}}
			if cfg.Name == wide.Name {
				specs = specs[:1]
			}
			for _, warmup := range []int{0, 20_000} {
				for _, spec := range specs {
					name := fmt.Sprintf("budget %d/%s/warmup %d/%s", budget, cfg.Name, warmup, spec)
					want, err := Run(context.Background(), nil, cfg, prof, seed, warmup, accesses, spec)
					if err != nil {
						t.Fatalf("%s generator: %v", name, err)
					}
					got, err := Run(context.Background(), store, cfg, prof, seed, warmup, accesses, spec)
					if err != nil {
						t.Fatalf("%s arena: %v", name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: arena replay diverges from generator run", name)
					}
					if !spec.Enabled() && want.CPU.Accesses != accesses {
						t.Errorf("%s: measured %d accesses, want %d", name, want.CPU.Accesses, accesses)
					}
					if warmup == 0 && cfg.Scheme == config.SchemeDynamic &&
						(len(want.History) == 0 || want.History[0].Epoch != 0) {
						t.Errorf("%s: cold run lost the epoch-0 allocation from History", name)
					}
				}
			}
		}
	}
}

// TestStandardMachinesMemoizedCopies: lookups return independent deep
// copies, so mutations through the returned pointers can never corrupt
// the memoized configs.
func TestStandardMachinesMemoizedCopies(t *testing.T) {
	a, err := MachineByName("sp-mr")
	if err != nil {
		t.Fatal(err)
	}
	a.User.Tech = "sram"
	a.Kernel.SizeKB = 1

	b, err := MachineByName("sp-mr")
	if err != nil {
		t.Fatal(err)
	}
	if b.User.Tech != "stt-medium" || b.Kernel.SizeKB != 256 {
		t.Fatalf("mutation through a returned config leaked into the memo: %+v %+v", b.User, b.Kernel)
	}

	ms := StandardMachines()
	ms[0].Unified.SizeKB = 7
	ms2 := StandardMachines()
	if ms2[0].Unified.SizeKB == 7 {
		t.Fatal("StandardMachines slices share segment pointers")
	}
	if len(ms2) != 7 {
		t.Fatalf("StandardMachines returned %d machines, want 7", len(ms2))
	}
}
