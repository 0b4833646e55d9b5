package sim

import (
	"fmt"
	"reflect"
	"testing"

	"mobilecache/internal/config"
	"mobilecache/internal/invariant"
	"mobilecache/internal/sample"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// TestStoreReplayMatchesGenerator is the arena's correctness contract:
// replaying a cached trace through every standard machine yields a
// RunReport identical — CPU result, L2 stats, energy buckets, DRAM
// traffic, partition history — to the arena-free, generator-driven Run
// for the same (profile, seed, accesses), and generates the trace once.
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
		want, err := Run(nil, cfg, prof, seed, 0, accesses, sample.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(store, cfg, prof, seed, 0, accesses, sample.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: cached replay diverges from generator run:\n generator: %+v\n cached:    %+v", name, want, got)
		}
	}
	st := store.Stats()
	if st.Generated != 1 {
		t.Fatalf("store generated %d traces for one (profile, seed); want 1", st.Generated)
	}
	if st.Hits != uint64(len(StandardMachineNames())-1) {
		t.Fatalf("store hits = %d, want %d", st.Hits, len(StandardMachineNames())-1)
	}
}

// TestStoreDemotedReplayMatchesGenerator covers the packed tier: with a
// budget too small to hold any hot decoded form, every replay goes
// through the packed decoding cursor and must still reproduce the
// generator-driven reports exactly. The trace is generated before the
// loop, because the call that generates it replays its own records;
// every machine below is served by a packed-only hit.
func TestStoreDemotedReplayMatchesGenerator(t *testing.T) {
	store := tracestore.New(1) // demotes every trace to packed-only
	prof := workload.Profiles()[1]
	const seed, accesses = 13, 40_000
	if tr, err := store.GetTrace(prof, seed, accesses); err != nil {
		t.Fatal(err)
	} else if tr.Records == nil {
		t.Fatal("the generating call did not get its records back")
	}

	for _, name := range []string{"baseline-sram", "sp-mr", "dp-sr"} {
		cfg, err := MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(nil, cfg, prof, seed, 0, accesses, sample.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(store, cfg, prof, seed, 0, accesses, sample.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: demoted packed replay diverges from generator run", name)
		}
	}
	if st := store.Stats(); st.Demotions == 0 || st.Hits != 3 {
		t.Fatalf("expected demotions under a 1-byte budget and a hit per machine, got %+v", st)
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
	want, err := Run(nil, cfg, prof, 5, 20_000, 30_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(store, cfg, prof, 5, 20_000, 30_000, sample.Spec{})
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
	rep, err := Run(nil, cfg, smallProfile(), 3, 0, 10_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPU.Accesses != 10_000 {
		t.Fatalf("nil-store run replayed %d accesses", rep.CPU.Accesses)
	}
}

// TestRunArenaMatchesGenerator pins every branch of Run. On every
// standard machine, cold and warm, exact and 1/8-sampled, a replay
// from an arena that keeps the hot tier and from one that demotes
// every trace to packed-only must DeepEqual the arena-free run, which
// drives the generator and filters it live when sampled, under strict
// audit. Exact runs must measure exactly the requested accesses. The
// DeepEqual cannot see a branch both sides share, so the test also
// checks that a cold dynamic-design run keeps the epoch-0 allocation
// in History (a warm replay with an empty prefix would trim it).
func TestRunArenaMatchesGenerator(t *testing.T) {
	t.Cleanup(SetAuditMode(invariant.ModeStrict))
	prof := workload.Profiles()[0]
	const seed, accesses = 17, 30_000
	for _, budget := range []int64{0, 1} {
		store := tracestore.New(budget)
		for _, cfg := range StandardMachines() {
			for _, warmup := range []int{0, 20_000} {
				for _, spec := range []sample.Spec{{}, {Factor: 8}} {
					name := fmt.Sprintf("budget %d/%s/warmup %d/%s", budget, cfg.Name, warmup, spec)
					want, err := Run(nil, cfg, prof, seed, warmup, accesses, spec)
					if err != nil {
						t.Fatalf("%s generator: %v", name, err)
					}
					got, err := Run(store, cfg, prof, seed, warmup, accesses, spec)
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
