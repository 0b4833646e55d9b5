package trace

import (
	"math/rand"
	"slices"
	"testing"
)

func acc(addr uint64, d Domain) Access {
	return Access{Addr: addr, Op: Load, Domain: d}
}

func TestReuseAnalyzerColdMisses(t *testing.T) {
	ra := NewReuseAnalyzer(64)
	for i := uint64(0); i < 10; i++ {
		ra.Observe(acc(i*64, User))
	}
	st := ra.Stats(User)
	if st.Accesses != 10 || st.ColdMisses != 10 || st.DistinctBlocks != 10 {
		t.Fatalf("cold stream stats wrong: %+v", st)
	}
}

func TestReuseAnalyzerImmediateReuse(t *testing.T) {
	ra := NewReuseAnalyzer(64)
	ra.Observe(acc(0, User))
	ra.Observe(acc(8, User)) // same block, distance 0
	st := ra.Stats(User)
	if st.Hist[0] != 1 {
		t.Fatalf("immediate reuse not in bin 0: %+v", st.Hist[:4])
	}
}

func TestReuseAnalyzerStackDistance(t *testing.T) {
	ra := NewReuseAnalyzer(64)
	// A, B, C, A: A's reuse has 2 distinct blocks in between
	// (d=2, d+1=3 -> bin 1).
	ra.Observe(acc(0*64, User))
	ra.Observe(acc(1*64, User))
	ra.Observe(acc(2*64, User))
	ra.Observe(acc(0*64, User))
	st := ra.Stats(User)
	if st.Hist[1] != 1 {
		t.Fatalf("distance-2 reuse not in bin 1: %+v", st.Hist[:4])
	}
	// Touching B again: distance 1 (only C more recent... wait, A was
	// re-touched after C). Order of recency now: A(4), C(3), B(2).
	ra.Observe(acc(1*64, User))
	st = ra.Stats(User)
	// B's distance is 2 (A and C touched since) -> bin 1 again.
	if st.Hist[1] != 2 {
		t.Fatalf("second distance-2 reuse miscounted: %+v", st.Hist[:4])
	}
}

func TestReuseAnalyzerDomainsSeparate(t *testing.T) {
	ra := NewReuseAnalyzer(64)
	// Kernel touches between user touches must not count toward the
	// user stack distance.
	ra.Observe(acc(0, User))
	for i := uint64(0); i < 8; i++ {
		ra.Observe(acc(0xffff000000000000+i*64, Kernel))
	}
	ra.Observe(acc(0, User))
	st := ra.Stats(User)
	if st.Hist[0] != 1 {
		t.Fatalf("kernel accesses polluted user distance: %+v", st.Hist[:4])
	}
}

func TestReuseAnalyzerCyclicPattern(t *testing.T) {
	// Cycling over N blocks gives every re-access distance N-1.
	const n = 16
	ra := NewReuseAnalyzer(64)
	for rep := 0; rep < 10; rep++ {
		for i := uint64(0); i < n; i++ {
			ra.Observe(acc(i*64, User))
		}
	}
	st := ra.Stats(User)
	// d = 15, d+1 = 16 -> bin 4.
	want := uint64(9 * n)
	if st.Hist[4] != want {
		t.Fatalf("cyclic distances: bin4 = %d, want %d (hist %v)", st.Hist[4], want, st.Hist[:6])
	}
	// A 16-block LRU cache hits all of them; an 8-block one none.
	if hr := st.HitRateAt(32); hr < 0.85 {
		t.Fatalf("hit rate at 32 blocks = %g, want high", hr)
	}
	if hr := st.HitRateAt(8); hr != 0 {
		t.Fatalf("hit rate at 8 blocks = %g, want 0", hr)
	}
}

// Reference implementation: naive O(n^2) stack distance.
func naiveDistances(addrs []uint64) map[int]int {
	out := map[int]int{}
	var history []uint64 // most recent last
	for _, a := range addrs {
		// Find previous position.
		prev := -1
		for i := len(history) - 1; i >= 0; i-- {
			if history[i] == a {
				prev = i
				break
			}
		}
		if prev >= 0 {
			distinct := map[uint64]bool{}
			for _, b := range history[prev+1:] {
				distinct[b] = true
			}
			out[len(distinct)]++
			history = append(history[:prev], history[prev+1:]...)
		}
		history = append(history, a)
	}
	return out
}

func TestReuseAnalyzerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	blocks := make([]uint64, 400)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(40)) * 64
	}
	ra := NewReuseAnalyzer(64)
	for _, b := range blocks {
		ra.Observe(acc(b, User))
	}
	st := ra.Stats(User)

	naive := naiveDistances(blocks)
	var wantHist [33]uint64
	for d, c := range naive {
		i := 0
		for (uint64(1)<<uint(i+1)) <= uint64(d)+1 && i < 32 {
			i++
		}
		wantHist[i] += uint64(c)
	}
	if st.Hist != wantHist {
		t.Fatalf("analyzer disagrees with naive:\n got %v\nwant %v", st.Hist[:8], wantHist[:8])
	}
}

// TestReuseAnalyzerMatchesLRUStack is a property test against the
// definition: per domain, an LRU stack of blocks, most recent first,
// where a re-accessed block's depth is its reuse distance. Random
// streams interleave both domains, reuse pools from 1 block to far
// more blocks than accesses, and lengths that carry the analyzer's
// time index across many doublings; every domain's whole ReuseStats
// must match.
func TestReuseAnalyzerMatchesLRUStack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(700)
		pool := 1 + rng.Intn(300)
		ra := NewReuseAnalyzer(64)
		var stack [NumDomains][]uint64
		var want [NumDomains]ReuseStats
		for i := 0; i < n; i++ {
			block := uint64(rng.Intn(pool))
			d := Domain(rng.Intn(2))
			ra.Observe(Access{Addr: block*64 + uint64(rng.Intn(64)), Op: Op(rng.Intn(3)), Domain: d})

			w := &want[d]
			w.Accesses++
			depth := slices.Index(stack[d], block)
			if depth < 0 {
				w.ColdMisses++
				w.DistinctBlocks++
			} else {
				// Bin i holds the distances whose d+1 is in [2^i, 2^(i+1)).
				bin := 0
				for 1<<(bin+1) <= depth+1 {
					bin++
				}
				w.Hist[bin]++
				stack[d] = slices.Delete(stack[d], depth, depth+1)
			}
			stack[d] = slices.Insert(stack[d], 0, block)
		}
		for d := Domain(0); d < NumDomains; d++ {
			if got := ra.Stats(d); got != want[d] {
				t.Fatalf("trial %d (%d accesses, pool %d), %v: got %+v, want %+v", trial, n, pool, d, got, want[d])
			}
		}
	}
}

func TestAnalyzeSource(t *testing.T) {
	recs := []Access{
		acc(0, User), acc(64, User), acc(0, User),
		{Addr: 0xffff000000000000, Op: Store, Domain: Kernel},
	}
	ra := Analyze(NewSliceSource(recs), 64)
	if ra.Stats(User).Accesses != 3 || ra.Stats(Kernel).Accesses != 1 {
		t.Fatal("analyze miscounted domains")
	}
}

func TestReuseAnalyzerPanicsOnBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad block size accepted")
		}
	}()
	NewReuseAnalyzer(48)
}

func TestReuseStatsEmpty(t *testing.T) {
	var st ReuseStats
	if st.CDF(5) != 0 || st.HitRateAt(1024) != 0 {
		t.Fatal("empty stats should report zeros")
	}
}
