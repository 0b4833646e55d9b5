package mem

import (
	"testing"

	"mobilecache/internal/cache"
	"mobilecache/internal/core"
	"mobilecache/internal/energy"
	"mobilecache/internal/sttram"
	"mobilecache/internal/trace"
)

func testL2(t *testing.T, dram *DRAM) core.L2 {
	t.Helper()
	u, err := core.NewUnified(core.SegmentConfig{
		Name: "L2", SizeBytes: 64 * 1024, Ways: 8, BlockBytes: 64,
		Policy: cache.LRU, Tech: energy.SRAM, Refresh: sttram.DirtyOnly,
	}, func(addr uint64) { dram.Write(addr) })
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// testL1I, testL1D and testDRAMConfig are the default machine's L1s
// and DRAM (config.Default, which imports this package).
func testL1I() L1Config { return L1Config{Name: "L1I", SizeBytes: 32 * 1024, Ways: 2, BlockBytes: 64} }
func testL1D() L1Config { return L1Config{Name: "L1D", SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 64} }
func testDRAMConfig() DRAMConfig {
	return DRAMConfig{Policy: rowFlat, LatencyCycles: 200, ReadPJ: 20_000, WritePJ: 22_000}
}

func testHierarchy(t *testing.T) (*Hierarchy, *DRAM) {
	t.Helper()
	dram := NewDRAM(testDRAMConfig())
	h, err := NewHierarchy(testL1I(), testL1D(), testL2(t, dram), dram)
	if err != nil {
		t.Fatal(err)
	}
	return h, dram
}

// access performs one CPU access at time now through the frame kernel
// — a one-record frame with Busy zeroed, so the access lands exactly at
// now — and returns its stall cycles.
func access(h *Hierarchy, a trace.Access, now uint64) uint64 {
	geom := h.FrameGeom()
	pre := [1]FramePre{trace.Precompute(&a, &geom)}
	pre[0].Busy = 0
	return h.AccessFrame(pre[:], now).Stall
}

func TestDRAMAccounting(t *testing.T) {
	d := NewDRAM(testDRAMConfig())
	lat := d.Read(0x1000)
	if lat != testDRAMConfig().LatencyCycles {
		t.Fatalf("read latency = %d", lat)
	}
	d.Write(0x2000)
	if d.Reads() != 1 || d.Writes() != 1 {
		t.Fatalf("counts = %d/%d", d.Reads(), d.Writes())
	}
	want := (testDRAMConfig().ReadPJ + testDRAMConfig().WritePJ) * 1e-12
	if got := d.EnergyJ(); got != want {
		t.Fatalf("energy = %g, want %g", got, want)
	}
	if d.rowHitReads+d.rowHitWrites != 0 {
		t.Fatal("flat DRAM tracked row state")
	}
}

// openPageTestConfig is an open-page model whose row misses cost more
// than the default flat access, so a row hit is cheaper on both axes.
func openPageTestConfig() DRAMConfig {
	return DRAMConfig{Policy: RowOpenPage, LatencyCycles: 260, ReadPJ: 26_000, WritePJ: 28_000}
}

func TestDRAMOpenPageRowBehaviour(t *testing.T) {
	cfg := openPageTestConfig()
	d := NewDRAM(cfg)
	// First touch of a row: miss. Same row again: hit, cheaper+faster.
	lat1 := d.Read(0x1000)
	lat2 := d.Read(0x1040)
	if lat1 != cfg.LatencyCycles {
		t.Fatalf("first access latency = %d, want row-miss %d", lat1, cfg.LatencyCycles)
	}
	if lat2 != rowHitCycles {
		t.Fatalf("same-row access latency = %d, want row-hit %d", lat2, rowHitCycles)
	}
	if hits := d.rowHitReads + d.rowHitWrites; hits != 1 || d.Reads()-hits != 1 {
		t.Fatalf("row stats = %d hits / %d misses", hits, d.Reads()-hits)
	}
	// A different row in the same bank evicts the open row.
	rowStride := uint64(openPageRowBytes * openPageBanks)
	if lat := d.Read(0x1000 + rowStride); lat != cfg.LatencyCycles {
		t.Fatalf("bank-conflict latency = %d, want row-miss", lat)
	}
	if lat := d.Read(0x1000); lat != cfg.LatencyCycles {
		t.Fatal("evicted row still open")
	}
	// Writes participate in the same row state.
	d.Write(0x1000)
	if hits := d.rowHitReads + d.rowHitWrites; hits != 2 {
		t.Fatalf("write to open row not a hit: %d hits", hits)
	}
}

func TestDRAMOpenPageEnergyCheaperOnHits(t *testing.T) {
	cfg := openPageTestConfig()
	hot := NewDRAM(cfg)
	cold := NewDRAM(cfg)
	// Sequential within a row vs strided across rows.
	for i := uint64(0); i < 32; i++ {
		hot.Read(i * 64)                                // one row: 1 miss + 31 hits
		cold.Read(i * openPageRowBytes * openPageBanks) // all conflicts
	}
	if hot.EnergyJ() >= cold.EnergyJ() {
		t.Fatalf("row-friendly stream cost %g >= conflict stream %g", hot.EnergyJ(), cold.EnergyJ())
	}
}

func TestNewHierarchyValidation(t *testing.T) {
	dram := NewDRAM(testDRAMConfig())
	if _, err := NewHierarchy(testL1I(), testL1D(), nil, dram); err == nil {
		t.Fatal("nil L2 accepted")
	}
	if _, err := NewHierarchy(testL1I(), testL1D(), testL2(t, dram), nil); err == nil {
		t.Fatal("nil DRAM accepted")
	}
	bad := testL1I()
	bad.Ways = 0
	if _, err := NewHierarchy(bad, testL1D(), testL2(t, dram), dram); err == nil {
		t.Fatal("bad L1 geometry accepted")
	}
}

func TestL1HitNoStall(t *testing.T) {
	h, _ := testHierarchy(t)
	a := trace.Access{Addr: 0x1000, Op: trace.Load, Domain: trace.User}
	stall1 := access(h, a, 100)
	if stall1 == 0 {
		t.Fatal("cold access should stall (L2+DRAM)")
	}
	stall2 := access(h, a, 200)
	if stall2 != 0 {
		t.Fatalf("L1 hit stalled %d cycles", stall2)
	}
}

func TestIfetchRoutesToL1I(t *testing.T) {
	h, _ := testHierarchy(t)
	access(h, trace.Access{Addr: 0x4000, Op: trace.Ifetch, Domain: trace.User}, 1)
	access(h, trace.Access{Addr: 0x8000, Op: trace.Load, Domain: trace.User}, 2)
	if h.L1I.Stats().TotalAccesses() != 1 {
		t.Fatalf("L1I accesses = %d, want 1", h.L1I.Stats().TotalAccesses())
	}
	if h.L1D.Stats().TotalAccesses() != 1 {
		t.Fatalf("L1D accesses = %d, want 1", h.L1D.Stats().TotalAccesses())
	}
}

func TestL2MissPaysDRAM(t *testing.T) {
	h, dram := testHierarchy(t)
	stall := access(h, trace.Access{Addr: 0x1000, Op: trace.Load, Domain: trace.User}, 100)
	if stall < testDRAMConfig().LatencyCycles {
		t.Fatalf("cold stall %d below DRAM latency", stall)
	}
	if dram.Reads() != 1 {
		t.Fatalf("DRAM reads = %d, want 1", dram.Reads())
	}
	// L2 hit (after L1 eviction) must not touch DRAM. Force an L1
	// conflict: L1D is 32KB 4-way => set stride 8KB. Access 5 blocks
	// in the same L1 set; all go to different L2 sets.
	reads := dram.Reads()
	for i := uint64(0); i < 5; i++ {
		access(h, trace.Access{Addr: 0x100000 + i*8192, Op: trace.Load, Domain: trace.User}, 200+i*10)
	}
	missesBefore := dram.Reads() - reads
	if missesBefore != 5 {
		t.Fatalf("expected 5 cold DRAM fills, got %d", missesBefore)
	}
	// The first of those five was evicted from L1 but lives in L2.
	stall = access(h, trace.Access{Addr: 0x100000, Op: trace.Load, Domain: trace.User}, 500)
	if dram.Reads() != reads+5 {
		t.Fatal("L2 hit went to DRAM")
	}
	if stall == 0 || stall >= testDRAMConfig().LatencyCycles {
		t.Fatalf("L2-hit stall = %d, want between 0 and DRAM latency", stall)
	}
}

func TestDirtyL1WritebackReachesL2(t *testing.T) {
	h, _ := testHierarchy(t)
	// Dirty a block, then evict it from L1 via conflicting fills.
	access(h, trace.Access{Addr: 0x100000, Op: trace.Store, Domain: trace.User}, 1)
	for i := uint64(1); i <= 4; i++ {
		access(h, trace.Access{Addr: 0x100000 + i*8192, Op: trace.Load, Domain: trace.User}, 1+i)
	}
	st := h.L2.Stats()
	// 5 demand reads + 1 writeback write.
	if st.TotalAccesses() != 6 {
		t.Fatalf("L2 accesses = %d, want 6 (5 fills + 1 writeback)", st.TotalAccesses())
	}
}

func TestDomainPreservedThroughWriteback(t *testing.T) {
	// A kernel-dirty block evicted from L1 must be written into the L2
	// as a *kernel* access even when user accesses trigger the
	// eviction — otherwise partitioned L2s would misroute it.
	h, _ := testHierarchy(t)
	access(h, trace.Access{Addr: 0xffff800000000000, Op: trace.Store, Domain: trace.Kernel}, 1)
	for i := uint64(1); i <= 4; i++ {
		access(h, trace.Access{Addr: 0xffff800000000000 + i*8192, Op: trace.Load, Domain: trace.User}, 1+i)
	}
	st := h.L2.Stats()
	if st.Accesses[trace.Kernel] != 2 { // 1 demand fill + 1 writeback
		t.Fatalf("kernel L2 accesses = %d, want 2", st.Accesses[trace.Kernel])
	}
}

// prefetches counts the prefetch fills among the L2-bound events of the
// last frame h ran.
func prefetches(h *Hierarchy) int {
	n := 0
	for _, e := range h.frame.Events {
		if e.Kind == Prefetch {
			n++
		}
	}
	return n
}

func TestNextLinePrefetch(t *testing.T) {
	h, dram := testHierarchy(t)
	h.NextLinePrefetch = true
	// A miss on block N prefetches N+1: the next sequential access
	// must hit the L1 without touching DRAM again.
	access(h, trace.Access{Addr: 0x10000, Op: trace.Load, Domain: trace.User}, 1)
	if n := prefetches(h); n != 1 {
		t.Fatalf("prefetches = %d, want 1", n)
	}
	reads := dram.Reads()
	stall := access(h, trace.Access{Addr: 0x10040, Op: trace.Load, Domain: trace.User}, 100)
	if stall != 0 {
		t.Fatalf("prefetched block stalled %d cycles", stall)
	}
	if dram.Reads() != reads {
		t.Fatal("prefetched block re-fetched from DRAM")
	}
	// Ifetches do not trigger the data prefetcher.
	access(h, trace.Access{Addr: 0x40000, Op: trace.Ifetch, Domain: trace.User}, 200)
	if prefetches(h) != 0 {
		t.Fatal("ifetch triggered the next-line prefetcher")
	}
	// Already-resident next blocks are not prefetched again.
	access(h, trace.Access{Addr: 0x10000, Op: trace.Load, Domain: trace.User}, 300) // hit, no pf path
	if prefetches(h) != 0 {
		t.Fatal("L1 hit issued a prefetch")
	}
}

func TestPrefetchDisabledByDefault(t *testing.T) {
	h, _ := testHierarchy(t)
	access(h, trace.Access{Addr: 0x10000, Op: trace.Load, Domain: trace.User}, 1)
	if prefetches(h) != 0 {
		t.Fatal("prefetcher active without opt-in")
	}
	if stall := access(h, trace.Access{Addr: 0x10040, Op: trace.Load, Domain: trace.User}, 100); stall == 0 {
		t.Fatal("next block hit without prefetching — test setup wrong")
	}
}

func TestAdvanceAccumulatesLeakage(t *testing.T) {
	h, _ := testHierarchy(t)
	access(h, trace.Access{Addr: 0x1000, Op: trace.Load, Domain: trace.User}, 1)
	h.Advance(energy.Cycles(0.01))
	rep := h.Energy()
	if rep.L2.LeakageJ <= 0 || rep.L1D.LeakageJ <= 0 {
		t.Fatalf("leakage not integrated: %+v", rep)
	}
	if rep.TotalJ() <= rep.L2.Total() {
		t.Fatal("total must include all levels")
	}
	// Advance is monotone-safe: going backwards is a no-op.
	h.Advance(10)
	if h.Energy().L2.LeakageJ != rep.L2.LeakageJ {
		t.Fatal("backwards advance changed energy")
	}
}

func TestEnergyReportIncludesDRAM(t *testing.T) {
	h, dram := testHierarchy(t)
	access(h, trace.Access{Addr: 0x1000, Op: trace.Load, Domain: trace.User}, 1)
	rep := h.Energy()
	if rep.DRAMJ != dram.EnergyJ() || rep.DRAMJ <= 0 {
		t.Fatalf("DRAM energy = %g, want %g > 0", rep.DRAMJ, dram.EnergyJ())
	}
}
