package core

import (
	"testing"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
	"mobilecache/internal/trace"
)

func TestSetPartitionValidation(t *testing.T) {
	cfg := segCfg("sp-sets", 64*1024, 8, energy.SRAM) // 128 sets
	if _, err := NewSetPartition(cfg, 0, nil); err == nil {
		t.Fatal("zero user sets accepted")
	}
	if _, err := NewSetPartition(cfg, 128, nil); err == nil {
		t.Fatal("all-user split accepted")
	}
	sp, err := NewSetPartition(cfg, 96, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, k := sp.userSets, sp.kernelSets
	if u != 96 || k != 32 {
		t.Fatalf("split = %d/%d", u, k)
	}
	if sp.SizeBytes() != 64*1024 || sp.PoweredBytes() != 64*1024 {
		t.Fatal("capacity accessors wrong")
	}
}

func TestSetPartitionIsolation(t *testing.T) {
	cfg := segCfg("sp-sets", 64*1024, 8, energy.SRAM)
	sp, err := NewSetPartition(cfg, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer overlapping addresses from both domains: with set
	// partitioning they land in disjoint regions, so no interference.
	for i := uint64(0); i < 40000; i++ {
		addr := (i % 4096) * 64
		sp.Access(addr, false, trace.User, i*10)
		sp.Access(addr, false, trace.Kernel, i*10+5)
	}
	st := sp.Stats()
	if st.InterferenceEvictions != 0 {
		t.Fatalf("set partition interfered: %d", st.InterferenceEvictions)
	}
	// Blocks live only in their region's sets.
	userSets, _ := sp.userSets, sp.kernelSets
	c := sp.seg.c
	c.VisitValid(func(set, _ int, meta *cache.BlockMeta) {
		inUserRegion := set < userSets
		if (meta.Domain == trace.User) != inUserRegion {
			t.Fatalf("%v block in set %d outside its region (user region < %d)", meta.Domain, set, userSets)
		}
	})
	st = sp.Stats()
	if st.Hits[trace.User]+st.Misses[trace.User] != st.Accesses[trace.User] {
		t.Fatal("accounting broken")
	}
}

func TestSetPartitionRemapInjective(t *testing.T) {
	// Distinct blocks of the same domain must stay distinct after the
	// fold: replaying a working set larger than a region must still
	// hit on re-access when the region can hold it.
	cfg := segCfg("sp-sets", 64*1024, 8, energy.SRAM) // 128 sets x 8 ways = 1024 blocks
	sp, err := NewSetPartition(cfg, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	// User region: 64 sets x 8 ways = 512 blocks. A 256-block
	// sequential footprint fills 4 ways of every region set; distinct
	// blocks must stay distinct (no false merging by the fold), so
	// every pass after the first hits. Offset the base address so the
	// tag bits are non-trivial.
	now := uint64(0)
	const base = 0x12340000
	for rep := 0; rep < 3; rep++ {
		for i := uint64(0); i < 256; i++ {
			now++
			sp.Access(base+i*64, false, trace.User, now)
		}
	}
	st := sp.Stats()
	// First pass cold, later passes must all hit (footprint fits).
	if st.Misses[trace.User] != 256 {
		t.Fatalf("user misses = %d, want 256 cold only (remap collides?)", st.Misses[trace.User])
	}
	// And two blocks that differ only above the fold must not alias:
	// same region index, different tags.
	a1 := base + uint64(0)
	a2 := base + uint64(64*64) // same idx (64 sets), next tag
	sp.Access(a1, true, trace.User, now+1)
	sp.Access(a2, false, trace.User, now+2)
	set1, _, ok1 := sp.seg.c.Probe(sp.remap(a1, trace.User))
	set2, _, ok2 := sp.seg.c.Probe(sp.remap(a2, trace.User))
	if !ok1 || !ok2 {
		t.Fatal("aliasing: one of two distinct blocks displaced the other")
	}
	if set1 != set2 {
		t.Fatalf("same-index blocks landed in different sets: %d vs %d", set1, set2)
	}
}

func TestSetPartitionRegionCapacity(t *testing.T) {
	// The kernel region is a quarter of the array; a kernel footprint
	// of half the array must thrash it while the same footprint in the
	// user region (3/4 of the array) fits.
	cfg := segCfg("sp-sets", 64*1024, 8, energy.SRAM)
	sp, err := NewSetPartition(cfg, 96, nil) // user 96 sets, kernel 32 sets
	if err != nil {
		t.Fatal(err)
	}
	// Footprint: 512 blocks = 32KB.
	now := uint64(0)
	for rep := 0; rep < 4; rep++ {
		for i := uint64(0); i < 512; i++ {
			now++
			sp.Access(i*64, false, trace.User, now)
			now++
			sp.Access(i*64, false, trace.Kernel, now)
		}
	}
	st := sp.Stats()
	userMR := st.DomainMissRate(trace.User)
	kernelMR := st.DomainMissRate(trace.Kernel)
	if kernelMR <= userMR {
		t.Fatalf("kernel (32-set region) miss rate %.3f not above user (96-set) %.3f", kernelMR, userMR)
	}
}
