package core

import (
	"testing"
	"testing/quick"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
	"mobilecache/internal/trace"
)

func dynCfg() DynamicConfig {
	cfg := DefaultDynamicConfig(segCfg("L2-dyn", 64*1024, 16, energy.SRAM))
	cfg.EpochAccesses = 2000
	cfg.SampleShift = 0 // small cache: monitor every set
	return cfg
}

func TestDynamicConfigValidate(t *testing.T) {
	good := dynCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.EpochAccesses = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero epoch accepted")
	}
	bad = good
	bad.Slack = -0.1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative slack accepted")
	}
	bad = good
	bad.MinWaysPerDomain = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero min ways accepted")
	}
	bad = good
	bad.MinWaysPerDomain = 9 // 2*9 > 16 ways
	if err := bad.Validate(); err == nil {
		t.Fatal("infeasible min ways accepted")
	}
}

func TestDynamicInitialAllocation(t *testing.T) {
	dp, err := NewDynamicPartition(dynCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	u, k := dp.userWays, dp.kernelWays
	if u < 1 || k < 1 || u+k > 16 {
		t.Fatalf("initial allocation %d+%d infeasible", u, k)
	}
	// The controller starts small and grows on demand, so the initial
	// powered capacity must be a strict subset of the array.
	if dp.PoweredBytes() >= dp.SizeBytes() {
		t.Fatal("initial allocation should not power the whole array")
	}
	if len(dp.History()) != 1 {
		t.Fatalf("history has %d entries, want 1 (initial)", len(dp.History()))
	}
}

func TestDynamicPartitionIsolatesDomains(t *testing.T) {
	dp, err := NewDynamicPartition(dynCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30000; i++ {
		addr := (i % 2048) * 64
		dp.Access(addr, false, trace.User, i*20)
		dp.Access(0xffff000000000000+addr, false, trace.Kernel, i*20+10)
	}
	// Way ownership changes hand over contents lazily, so a few
	// cross-domain evictions occur right after a repartition — but in
	// steady state the masks isolate the domains, so interference must
	// stay a tiny fraction of all evictions.
	cs := dp.seg.c.Stats()
	if cs.Evictions > 0 {
		frac := float64(cs.InterferenceEvictions) / float64(cs.Evictions)
		if frac > 0.05 {
			t.Fatalf("interference evictions = %.1f%% of evictions, want transition-only (<5%%)", frac*100)
		}
	}
	// New allocations always respect the masks: every block filled
	// after the last repartition sits in its domain's ways.
	c := dp.seg.c
	lastRepartition := dp.History()[len(dp.History())-1].AtCycle
	masks := [trace.NumDomains]uint64{
		trace.User:   maskRange(0, dp.userWays),
		trace.Kernel: maskRange(dp.userWays, dp.userWays+dp.kernelWays),
	}
	c.VisitValid(func(_, way int, meta *cache.BlockMeta) {
		if meta.FilledAt > lastRepartition && masks[meta.Domain]&(1<<uint(way)) == 0 {
			t.Fatalf("block of %v filled at %d in way %d outside its mask", meta.Domain, meta.FilledAt, way)
		}
	})
}

func TestDynamicShrinksSmallFootprint(t *testing.T) {
	// Both domains touch tiny working sets: the controller must gate
	// most ways.
	cfg := dynCfg()
	dp, err := NewDynamicPartition(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := uint64(0); i < 50000; i++ {
		now += 20
		dp.Access((i%8)*64, false, trace.User, now)
		now += 20
		dp.Access(0xffff000000000000+(i%8)*64, false, trace.Kernel, now)
	}
	u, k := dp.userWays, dp.kernelWays
	if u+k > 8 {
		t.Fatalf("tiny footprints kept %d+%d ways powered", u, k)
	}
	if dp.PoweredBytes() >= dp.SizeBytes() {
		t.Fatal("powered capacity did not shrink")
	}
	// History must show at least one gating decision.
	last := dp.History()[len(dp.History())-1]
	if last.GatedWays == 0 {
		t.Fatalf("no gated ways in final decision: %+v", last)
	}
}

func TestDynamicGrowsForLargeFootprint(t *testing.T) {
	// User streams a large hot set while kernel stays tiny: the user
	// allocation must end up far above the kernel's.
	dp, err := NewDynamicPartition(dynCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	// User working set: 512 blocks over 64 sets (64KB cache, 16 ways,
	// 64B blocks = 64 sets); that's 8 ways' worth.
	for i := uint64(0); i < 120000; i++ {
		now += 20
		dp.Access((i%768)*64, false, trace.User, now)
		if i%5 == 0 {
			now += 20
			dp.Access(0xffff000000000000+(i%4)*64, false, trace.Kernel, now)
		}
	}
	u, k := dp.userWays, dp.kernelWays
	if u <= k {
		t.Fatalf("user ways %d not above kernel ways %d for user-heavy load", u, k)
	}
	if u < 6 {
		t.Fatalf("user allocation %d too small for 12-way footprint", u)
	}
}

func TestDynamicAdaptsAcrossPhases(t *testing.T) {
	// Phase 1 favours user, phase 2 favours kernel; allocations must
	// follow.
	dp, err := NewDynamicPartition(dynCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := uint64(0); i < 60000; i++ {
		now += 20
		dp.Access((i%640)*64, false, trace.User, now)
		if i%8 == 0 {
			now += 20
			dp.Access(0xffff000000000000+(i%4)*64, false, trace.Kernel, now)
		}
	}
	u1, k1 := dp.userWays, dp.kernelWays
	for i := uint64(0); i < 60000; i++ {
		now += 20
		dp.Access(0xffff000000000000+(i%640)*64, false, trace.Kernel, now)
		if i%8 == 0 {
			now += 20
			dp.Access((i%4)*64, false, trace.User, now)
		}
	}
	u2, k2 := dp.userWays, dp.kernelWays
	if u1 <= k1 {
		t.Fatalf("phase 1 allocation user=%d kernel=%d, want user-heavy", u1, k1)
	}
	if k2 <= u2 {
		t.Fatalf("phase 2 allocation user=%d kernel=%d, want kernel-heavy", u2, k2)
	}
}

func TestDynamicFlushWritesBackDirtyOnRepartition(t *testing.T) {
	var wbs int
	cfg := dynCfg()
	dp, err := NewDynamicPartition(cfg, func(uint64) { wbs++ })
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	// Phase 1: dirty wide footprints in both domains so the controller
	// grows and the ways fill with dirty lines.
	for i := uint64(0); i < 30000; i++ {
		now += 20
		dp.Access((i%1024)*64, true, trace.User, now)
		now += 20
		dp.Access(0xffff000000000000+(i%512)*64, true, trace.Kernel, now)
	}
	u1, k1 := dp.userWays, dp.kernelWays
	if u1+k1 < 8 {
		t.Fatalf("precondition: controller did not grow (u=%d k=%d)", u1, k1)
	}
	// Phase 2: tiny footprints; the controller must gate ways, and
	// gating powers off dirty lines, which must be written back.
	for i := uint64(0); i < 60000; i++ {
		now += 20
		dp.Access((i%4)*64, false, trace.User, now)
		now += 20
		dp.Access(0xffff000000000000+(i%4)*64, false, trace.Kernel, now)
	}
	u2, k2 := dp.userWays, dp.kernelWays
	if u2+k2 >= u1+k1 {
		t.Fatalf("controller did not shrink (%d+%d -> %d+%d)", u1, k1, u2, k2)
	}
	if dp.FlushWritebacks() == 0 {
		t.Fatal("no flush writebacks despite gating away dirty ways")
	}
	if wbs == 0 {
		t.Fatal("writeback callback never invoked")
	}
}

func TestDynamicLeakageScalesWithGating(t *testing.T) {
	// Run a tiny-footprint load long enough to gate most ways, then
	// compare leakage growth against a fully powered twin over the
	// same additional interval.
	cfg := dynCfg()
	dp, err := NewDynamicPartition(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := uint64(0); i < 30000; i++ {
		now += 30
		dp.Access((i%8)*64, false, trace.User, now)
		dp.Access(0xffff000000000000+(i%8)*64, false, trace.Kernel, now)
	}
	dp.Advance(now)
	leakBefore := dp.Energy().LeakageJ
	poweredFrac := float64(dp.PoweredBytes()) / float64(dp.SizeBytes())
	if poweredFrac >= 0.999 {
		t.Fatal("precondition failed: array did not gate")
	}
	// One second of idle leakage at the gated fraction.
	dp.Advance(now + energy.Cycles(1.0))
	leakDelta := dp.Energy().LeakageJ - leakBefore
	fullLeak := energy.DefaultParams(energy.SRAM).LeakageMWPerMB * 1e-3 * (64.0 / 1024.0)
	wantLeak := fullLeak * poweredFrac
	if leakDelta <= 0 {
		t.Fatal("no leakage accumulated")
	}
	ratio := leakDelta / wantLeak
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("gated leakage %g J, want ~%g J (ratio %g)", leakDelta, wantLeak, ratio)
	}
}

func TestDynamicHistoryConsistent(t *testing.T) {
	dp, err := NewDynamicPartition(dynCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := uint64(0); i < 20000; i++ {
		now += 20
		dp.Access((i%256)*64, false, trace.User, now)
		dp.Access(0xffff000000000000+(i%64)*64, false, trace.Kernel, now)
	}
	hist := dp.History()
	if len(hist) < 2 {
		t.Fatalf("history has %d entries, want several", len(hist))
	}
	ways := dp.cfg.Segment.Ways
	for i, d := range hist {
		if d.UserWays+d.KernelWays+d.GatedWays != ways {
			t.Fatalf("decision %d does not partition the array: %+v", i, d)
		}
		if d.UserWays < 1 || d.KernelWays < 1 {
			t.Fatalf("decision %d starves a domain: %+v", i, d)
		}
		if i > 0 && d.AtAccess < hist[i-1].AtAccess {
			t.Fatalf("history not ordered at %d", i)
		}
	}
}

// Property: under arbitrary access streams the controller never
// violates its structural invariants — allocations partition the
// array, stats stay consistent, powered never exceeds installed, and
// no dirty data is lost.
func TestDynamicInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := dynCfg()
		cfg.EpochAccesses = 500
		dp, err := NewDynamicPartition(cfg, nil)
		if err != nil {
			return false
		}
		s := seed
		now := uint64(0)
		for i := 0; i < 5000; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			now += 1 + s%200
			addr := (s >> 16) % (256 * 1024)
			dom := trace.User
			if s%16 < 7 {
				dom = trace.Kernel
				addr += 0xffff000000000000
			}
			dp.Access(addr, s%5 == 0, dom, now)
		}
		u, k := dp.userWays, dp.kernelWays
		ways := dp.cfg.Segment.Ways
		if u < 1 || k < 1 || u+k > ways {
			return false
		}
		if dp.PoweredBytes() > dp.SizeBytes() {
			return false
		}
		st := dp.Stats()
		for d := 0; d < trace.NumDomains; d++ {
			if st.Hits[d]+st.Misses[d] != st.Accesses[d] {
				return false
			}
		}
		if st.DirtyExpiries != 0 {
			return false
		}
		for i, dec := range dp.History() {
			if dec.UserWays+dec.KernelWays+dec.GatedWays != ways {
				return false
			}
			if i > 0 && dec.AtAccess < dp.History()[i-1].AtAccess {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicWithShortRetentionSTT(t *testing.T) {
	// DP-SR: the paper's maximal design. Verify it runs, expires clean
	// lines, never loses dirty data, and gates ways.
	seg := segCfg("L2-dpsr", 64*1024, 16, energy.STTShort)
	cfg := DefaultDynamicConfig(seg)
	cfg.EpochAccesses = 2000
	cfg.SampleShift = 0
	dp, err := NewDynamicPartition(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := uint64(0); i < 60000; i++ {
		now += 1500 // slow accesses so retention matters (26.5us = 53k cycles)
		dp.Access((i%64)*64, i%4 == 0, trace.User, now)
		now += 1500
		dp.Access(0xffff000000000000+(i%32)*64, i%3 == 0, trace.Kernel, now)
	}
	st := dp.Stats()
	if st.DirtyExpiries != 0 {
		t.Fatalf("dirty expiries = %d, want 0", st.DirtyExpiries)
	}
	if st.Refreshes == 0 {
		t.Fatal("short-retention array never refreshed")
	}
	if dp.Energy().RefreshJ <= 0 {
		t.Fatal("no refresh energy")
	}
}
