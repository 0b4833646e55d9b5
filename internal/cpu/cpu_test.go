package cpu

import (
	"context"
	"errors"
	"testing"

	"mobilecache/internal/cache"
	"mobilecache/internal/core"
	"mobilecache/internal/energy"
	"mobilecache/internal/mem"
	"mobilecache/internal/sttram"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

func testHier(t *testing.T) *mem.Hierarchy {
	t.Helper()
	dram := mem.NewDRAM(mem.DefaultDRAMConfig())
	l2, err := core.NewUnified(core.SegmentConfig{
		Name: "L2", SizeBytes: 256 * 1024, Ways: 8, BlockBytes: 64,
		Policy: cache.LRU, Tech: energy.SRAM, Refresh: sttram.DirtyOnly,
	}, func(addr uint64) { dram.Write(addr) })
	if err != nil {
		t.Fatal(err)
	}
	h, err := mem.NewHierarchy(mem.DefaultL1I(), mem.DefaultL1D(), l2, dram)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// replay runs src on c under a context that never ends.
func replay(t *testing.T, c *CPU, src trace.Source, maxAccesses uint64) Result {
	t.Helper()
	res, err := c.Run(context.Background(), src, maxAccesses)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cancelAfter is a plain Source that cancels its context once it has
// handed out n records.
type cancelAfter struct {
	trace.Source
	n      int
	cancel context.CancelFunc
}

func (s *cancelAfter) Next() (trace.Access, bool) {
	if s.n--; s.n == 0 {
		s.cancel()
	}
	return s.Source.Next()
}

// Cancellation is polled at frame boundaries only: the frame during
// which the context ends is replayed whole, and the next never starts.
func TestRunStopsAtFrameBoundaryWhenCancelled(t *testing.T) {
	c, err := New(Config{}, testHier(t))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Access, 10*stepBatchLen)
	for i := range recs {
		recs[i] = trace.Access{Addr: uint64(i) * 64, Op: trace.Load, Domain: trace.User}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfter{Source: trace.NewSliceSource(recs), n: stepBatchLen + 10, cancel: cancel}
	res, err := c.Run(ctx, src, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Accesses != 2*stepBatchLen {
		t.Fatalf("replayed %d accesses, want the 2 frames up to the cancel (%d)", res.Accesses, 2*stepBatchLen)
	}
	if res, err := c.Run(ctx, trace.NewSliceSource(recs), 0); !errors.Is(err, context.Canceled) || res.Accesses != 0 {
		t.Fatalf("already-cancelled run = %d accesses, err %v; want 0 and context.Canceled", res.Accesses, err)
	}
}

// New checks its inputs: the zero Config (no idling) is a valid core,
// a nil hierarchy is not.
func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{}, testHier(t)); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("nil hierarchy accepted")
	}
}

func TestRunCountsInstructionsAndCycles(t *testing.T) {
	c, err := New(Config{}, testHier(t))
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Access{
		{Addr: 0x1000, Gap: 4, Op: trace.Load, Domain: trace.User},    // 5 instructions
		{Addr: 0x1000, Gap: 0, Op: trace.Load, Domain: trace.User},    // 1 instruction, L1 hit
		{Addr: 0x2000, Gap: 9, Op: trace.Store, Domain: trace.Kernel}, // 10 instructions
	}
	res := replay(t, c, trace.NewSliceSource(recs), 0)
	if res.Accesses != 3 {
		t.Fatalf("accesses = %d, want 3", res.Accesses)
	}
	if res.Instructions != 16 {
		t.Fatalf("instructions = %d, want 16", res.Instructions)
	}
	if res.Cycles <= res.Instructions {
		t.Fatal("cycles must exceed instructions (cold misses stall)")
	}
	if res.StallCycles == 0 {
		t.Fatal("no stalls recorded despite cold misses")
	}
	if res.Cycles != res.Instructions+res.StallCycles {
		t.Fatalf("cycles %d != busy %d + stalls %d at CPI 1", res.Cycles, res.Instructions, res.StallCycles)
	}
	if res.CyclesByDomain[trace.User]+res.CyclesByDomain[trace.Kernel] != res.Cycles {
		t.Fatal("per-domain cycles do not sum to total")
	}
}

func TestRunLimit(t *testing.T) {
	c, err := New(Config{}, testHier(t))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Access, 100)
	for i := range recs {
		recs[i] = trace.Access{Addr: uint64(i) * 64, Op: trace.Load, Domain: trace.User}
	}
	res := replay(t, c, trace.NewSliceSource(recs), 10)
	if res.Accesses != 10 {
		t.Fatalf("limited run replayed %d, want 10", res.Accesses)
	}
}

func TestIPCBoundedByBaseCPI(t *testing.T) {
	c, err := New(Config{}, testHier(t))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.Generate(workload.Profile{
		Name: "t", KernelShare: 0.4,
		UserWorkingSet: 64 * workload.KB, KernelWorkingSet: 32 * workload.KB,
		UserZipf: 1, KernelZipf: 0.5, UserWriteRatio: 0.2, KernelWriteRatio: 0.5,
		IfetchFrac: 0.25, UserCodeSet: 16 * workload.KB, KernelCodeSet: 8 * workload.KB,
		UserBurstMean: 100, GapMean: 2,
	}, 7, 50000)
	if err != nil {
		t.Fatal(err)
	}
	res := replay(t, c, trace.NewSliceSource(recs), 0)
	ipc := res.IPC()
	if ipc <= 0 || ipc > 1.0 {
		t.Fatalf("IPC = %g, want in (0,1] at base CPI 1", ipc)
	}
	if res.StallFraction() < 0 || res.StallFraction() >= 1 {
		t.Fatalf("stall fraction = %g", res.StallFraction())
	}
}

func TestTimeAdvancesMonotonically(t *testing.T) {
	c, err := New(Config{}, testHier(t))
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Access{{Addr: 0x40, Op: trace.Load, Domain: trace.User}}
	replay(t, c, trace.NewSliceSource(recs), 0)
	t1 := c.Now()
	replay(t, c, trace.NewSliceSource(recs), 0)
	if c.Now() <= t1 {
		t.Fatal("time did not advance across runs")
	}
}

func TestIdleStretches(t *testing.T) {
	c, err := New(Config{IdleEvery: 10, IdleCycles: 5000}, testHier(t))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Access, 100)
	for i := range recs {
		recs[i] = trace.Access{Addr: uint64(i%4) * 64, Op: trace.Load, Domain: trace.User}
	}
	res := replay(t, c, trace.NewSliceSource(recs), 0)
	// 100 accesses / idle every 10 => 10 idle stretches.
	if res.IdleCycles != 10*5000 {
		t.Fatalf("idle cycles = %d, want 50000", res.IdleCycles)
	}
	// Idle time elapses on the wall clock but not in IPC.
	if res.WallCycles() != res.Cycles+res.IdleCycles {
		t.Fatal("wall cycles inconsistent")
	}
	if res.Cycles >= res.WallCycles() {
		t.Fatal("idle did not extend wall time")
	}
	// The simulated clock advanced past the idle time.
	if c.Now() < res.IdleCycles {
		t.Fatalf("clock %d did not include idle time", c.Now())
	}
}

func TestIdleAccumulatesLeakage(t *testing.T) {
	run := func(idle uint64) float64 {
		h := testHier(t)
		c, err := New(Config{IdleEvery: 100, IdleCycles: idle}, h)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]trace.Access, 2000)
		for i := range recs {
			recs[i] = trace.Access{Addr: uint64(i%16) * 64, Op: trace.Load, Domain: trace.User}
		}
		replay(t, c, trace.NewSliceSource(recs), 0)
		return h.Energy().L2.LeakageJ
	}
	if run(100_000) <= run(0)*2 {
		t.Fatal("idle stretches did not accumulate leakage")
	}
}

func TestEmptyResult(t *testing.T) {
	var r Result
	if r.IPC() != 0 || r.StallFraction() != 0 {
		t.Fatal("empty result should report zeros")
	}
}

func TestBiggerCacheNoWorseIPC(t *testing.T) {
	// Performance sanity: a machine with a larger L2 must not lose IPC
	// on a cache-pressured workload.
	run := func(size uint64) float64 {
		dram := mem.NewDRAM(mem.DefaultDRAMConfig())
		l2, err := core.NewUnified(core.SegmentConfig{
			Name: "L2", SizeBytes: size, Ways: 8, BlockBytes: 64,
			Policy: cache.LRU, Tech: energy.SRAM, Refresh: sttram.DirtyOnly,
		}, func(addr uint64) { dram.Write(addr) })
		if err != nil {
			t.Fatal(err)
		}
		h, err := mem.NewHierarchy(mem.DefaultL1I(), mem.DefaultL1D(), l2, dram)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{}, h)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := workload.Generate(workload.Profile{
			Name: "pressure", KernelShare: 0.4,
			UserWorkingSet: 512 * workload.KB, KernelWorkingSet: 128 * workload.KB,
			UserZipf: 0.7, KernelZipf: 0.5, UserWriteRatio: 0.3, KernelWriteRatio: 0.5,
			IfetchFrac: 0.2, UserCodeSet: 64 * workload.KB, KernelCodeSet: 32 * workload.KB,
			UserBurstMean: 150, GapMean: 2,
		}, 11, 80000)
		if err != nil {
			t.Fatal(err)
		}
		return replay(t, c, trace.NewSliceSource(recs), 0).IPC()
	}
	small, big := run(64*1024), run(1024*1024)
	if big+1e-9 < small {
		t.Fatalf("bigger L2 lost IPC: %g vs %g", big, small)
	}
}
