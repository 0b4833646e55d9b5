package core

import (
	"testing"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
	"mobilecache/internal/sttram"
	"mobilecache/internal/trace"
)

func segCfg(name string, size uint64, ways int, tech energy.Tech) SegmentConfig {
	return SegmentConfig{
		Name: name, SizeBytes: size, Ways: ways, BlockBytes: 64,
		Policy: cache.LRU, Tech: tech, Refresh: sttram.DirtyOnly,
	}
}

func TestSegmentConfigValidate(t *testing.T) {
	good := segCfg("ok", 64*1024, 8, energy.SRAM)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	bad := good
	bad.Tech = energy.Tech(99)
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid tech accepted")
	}
	bad = good
	bad.Refresh = sttram.RefreshPolicy(99)
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid refresh accepted")
	}
	bad = good
	bad.Ways = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestUnifiedBasics(t *testing.T) {
	var wbs []uint64
	u, err := NewUnified(segCfg("L2", 64*1024, 8, energy.SRAM), func(a uint64) { wbs = append(wbs, a) })
	if err != nil {
		t.Fatal(err)
	}
	if u.SizeBytes() != 64*1024 || u.PoweredBytes() != 64*1024 {
		t.Fatalf("capacity accessors wrong: %d %d", u.SizeBytes(), u.PoweredBytes())
	}
	hit, lat := u.Access(0x1000, false, trace.User, 100)
	if hit {
		t.Fatal("cold access hit")
	}
	if lat == 0 {
		t.Fatal("miss latency zero")
	}
	hit, lat2 := u.Access(0x1000, false, trace.User, 200)
	if !hit {
		t.Fatal("second access missed")
	}
	if lat2 == 0 {
		t.Fatal("hit latency zero")
	}
	st := u.Stats()
	if st.TotalAccesses() != 2 || st.Hits[trace.User] != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	u.Advance(1000000)
	if u.Energy().Total() <= 0 {
		t.Fatal("no energy accumulated")
	}
}

func TestUnifiedDirtyEvictionWritesBack(t *testing.T) {
	var wbs []uint64
	// Tiny direct-mapped-ish cache to force evictions: 2 ways, 2 sets.
	u, err := NewUnified(segCfg("L2", 4*64, 2, energy.SRAM), func(a uint64) { wbs = append(wbs, a) })
	if err != nil {
		t.Fatal(err)
	}
	u.Access(0, true, trace.User, 1) // dirty fill set 0
	// Two more fills into set 0 evict it.
	u.Access(2*64, false, trace.User, 2)
	u.Access(4*64, false, trace.User, 3)
	if len(wbs) != 1 || wbs[0] != 0 {
		t.Fatalf("writebacks = %v, want [0]", wbs)
	}
}

func TestUnifiedBankBusySerializesAccesses(t *testing.T) {
	u, err := NewUnified(segCfg("L2", 64*1024, 8, energy.STTLong), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm a block, then hammer hits at the same timestamp: each
	// successive hit should see increasing latency (bank occupancy).
	u.Access(0x40, false, trace.User, 0)
	_, lat1 := u.Access(0x40, false, trace.User, 1000)
	_, lat2 := u.Access(0x40, false, trace.User, 1000)
	if lat2 <= lat1 {
		t.Fatalf("bank busy not modeled: lat1=%d lat2=%d", lat1, lat2)
	}
}

func TestUnifiedSTTShortExpiresCleanLines(t *testing.T) {
	cfg := segCfg("L2", 64*1024, 8, energy.STTShort)
	cfg.Refresh = sttram.EagerWriteback
	u, err := NewUnified(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	u.Access(0x40, false, trace.User, 0)
	ret := energy.DefaultParams(energy.STTShort).RetentionCycles
	// Long after retention: the access path must treat it as a miss.
	hit, _ := u.Access(0x40, false, trace.User, ret*3)
	if hit {
		t.Fatal("expired line served as hit")
	}
	st := u.Stats()
	if st.CleanExpiries+st.ExpiryInvalidations == 0 {
		t.Fatalf("no expiry recorded: %+v", st)
	}
	if st.DirtyExpiries != 0 {
		t.Fatalf("dirty expiries = %d, want 0", st.DirtyExpiries)
	}
}

func TestUnifiedSTTShortPeriodicRefreshKeepsHits(t *testing.T) {
	cfg := segCfg("L2", 64*1024, 8, energy.STTShort)
	cfg.Refresh = sttram.PeriodicAll
	u, err := NewUnified(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	u.Access(0x40, false, trace.User, 0)
	ret := energy.DefaultParams(energy.STTShort).RetentionCycles
	hit, _ := u.Access(0x40, false, trace.User, ret*3)
	if !hit {
		t.Fatal("refreshed line missed")
	}
	if u.Stats().Refreshes == 0 {
		t.Fatal("no refreshes recorded")
	}
	if u.Energy().RefreshJ <= 0 {
		t.Fatal("no refresh energy charged")
	}
}

func TestStaticPartitionIsolation(t *testing.T) {
	sp, err := NewStaticPartition("SP",
		segCfg("L2-user", 32*1024, 8, energy.SRAM),
		segCfg("L2-kernel", 16*1024, 8, energy.SRAM), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.SizeBytes() != 48*1024 {
		t.Fatalf("total size = %d, want 48K", sp.SizeBytes())
	}
	// Hammer conflicting addresses from both domains; isolation means
	// zero interference evictions.
	for i := uint64(0); i < 20000; i++ {
		addr := (i % 1024) * 64
		sp.Access(addr, false, trace.User, i*10)
		sp.Access(addr, false, trace.Kernel, i*10+5)
	}
	st := sp.Stats()
	if st.InterferenceEvictions != 0 {
		t.Fatalf("interference in static partition: %d", st.InterferenceEvictions)
	}
	if st.Accesses[trace.User] != 20000 || st.Accesses[trace.Kernel] != 20000 {
		t.Fatalf("access routing wrong: %+v", st.Accesses)
	}
	// Per-segment accessors agree with the aggregate.
	us, ks := sp.SegmentStats(trace.User), sp.SegmentStats(trace.Kernel)
	if us.Accesses[trace.User]+ks.Accesses[trace.Kernel] != st.TotalAccesses() {
		t.Fatal("segment stats do not sum to aggregate")
	}
	if us.Accesses[trace.Kernel] != 0 || ks.Accesses[trace.User] != 0 {
		t.Fatal("segment received other domain's accesses")
	}
}

func TestStaticPartitionRejectsMismatchedBlocks(t *testing.T) {
	u := segCfg("u", 32*1024, 8, energy.SRAM)
	k := segCfg("k", 16*1024, 8, energy.SRAM)
	k.BlockBytes = 128
	if _, err := NewStaticPartition("SP", u, k, nil); err == nil {
		t.Fatal("mismatched block sizes accepted")
	}
}

func TestStaticPartitionMultiRetentionEnergySplit(t *testing.T) {
	sp, err := NewStaticPartition("SP-MR",
		segCfg("L2-user", 32*1024, 8, energy.STTMedium),
		segCfg("L2-kernel", 16*1024, 8, energy.STTShort), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		sp.Access(i*64, i%2 == 0, trace.User, i*100)
		sp.Access(0xffff000000000000+i*64, i%2 == 0, trace.Kernel, i*100+50)
	}
	sp.Advance(1_000_000)
	ub, kb := sp.SegmentEnergy(trace.User), sp.SegmentEnergy(trace.Kernel)
	if ub.Total() <= 0 || kb.Total() <= 0 {
		t.Fatal("segment energies not accumulated")
	}
	sum := ub
	sum.Add(kb)
	if total := sp.Energy().Total(); total != sum.Total() {
		t.Fatalf("aggregate energy %g != segment sum %g", total, sum.Total())
	}
	// Same write count per segment, but medium-retention writes cost
	// more than short-retention writes.
	if ub.WriteJ <= kb.WriteJ {
		t.Fatalf("user (medium) write energy %g not above kernel (short) %g", ub.WriteJ, kb.WriteJ)
	}
}

func TestL2StatsHelpers(t *testing.T) {
	var s L2Stats
	if s.MissRate() != 0 || s.KernelShare() != 0 || s.DomainMissRate(trace.User) != 0 {
		t.Fatal("empty stats should report zeros")
	}
	s.Accesses[trace.User] = 6
	s.Accesses[trace.Kernel] = 4
	s.Misses[trace.User] = 3
	s.Misses[trace.Kernel] = 1
	if s.TotalAccesses() != 10 || s.TotalMisses() != 4 {
		t.Fatal("totals wrong")
	}
	if s.MissRate() != 0.4 {
		t.Fatalf("miss rate = %g", s.MissRate())
	}
	if s.KernelShare() != 0.4 {
		t.Fatalf("kernel share = %g", s.KernelShare())
	}
	if s.DomainMissRate(trace.User) != 0.5 {
		t.Fatalf("user miss rate = %g", s.DomainMissRate(trace.User))
	}
}
