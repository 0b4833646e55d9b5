package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"mobilecache/internal/cache"
	"mobilecache/internal/trace"
)

// TestAccessFrameMatchesCacheModel checks the frame kernel's L1 hit
// scan against an independent path: a standalone LRU cache.Cache per
// L1, fed the same records through cache.Access (Lookup's way search,
// then Fill). With the prefetcher off an L1 changes only on its own
// records, so after every frame each L1's counters must equal its
// model's, at every associativity — including the rows wider than
// one scan window and those that end in a partial window.
func TestAccessFrameMatchesCacheModel(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 4, 6, 8, 12, 16, 32} {
		t.Run(fmt.Sprintf("%d-way", ways), func(t *testing.T) {
			// 16 sets keeps the rows contended: the block pool below is
			// three times the capacity, so hits, misses, clean and
			// dirty evictions and cross-domain victims all occur.
			cfg := L1Config{SizeBytes: uint64(ways * 64 * 16), Ways: ways, BlockBytes: 64}
			icfg, dcfg := cfg, cfg
			icfg.Name, dcfg.Name = "L1I", "L1D"
			dram := NewDRAM(DefaultDRAMConfig())
			h, err := NewHierarchy(icfg, dcfg, testL2(t, dram), dram)
			if err != nil {
				t.Fatal(err)
			}
			model := func() *cache.Cache {
				c, err := cache.New(cache.Config{SizeBytes: cfg.SizeBytes, Ways: ways, BlockBytes: 64, Policy: cache.LRU})
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			refI, refD := model(), model()

			rng := rand.New(rand.NewSource(int64(ways)))
			blocks := uint64(3 * ways * 16)
			geom := h.FrameGeom()
			var frame [256]FramePre
			now := uint64(0)
			for done := 0; done < 40_000; {
				n := 1 + rng.Intn(len(frame))
				for k := 0; k < n; k++ {
					a := trace.Access{
						Addr:   rng.Uint64()%blocks*64 + uint64(rng.Intn(64)),
						Op:     trace.Op(rng.Intn(3)),
						Domain: trace.Domain(rng.Intn(2)),
						Gap:    uint32(rng.Intn(4)),
					}
					frame[k] = trace.Precompute(&a, &geom)
					ref := refD
					if a.Op == trace.Ifetch {
						ref = refI
					}
					ref.Access(a.Addr, a.Op == trace.Store, a.Domain, uint64(done+k))
				}
				fs := h.AccessFrame(frame[:n], now)
				now += fs.Busy + fs.Stall
				done += n
				for _, l := range []struct {
					name      string
					got, want *cache.Stats
				}{{"L1I", h.L1I.Stats(), refI.Stats()}, {"L1D", h.L1D.Stats(), refD.Stats()}} {
					if msg := diffCounters(l.got, l.want); msg != "" {
						t.Fatalf("%s after %d records: %s", l.name, done, msg)
					}
				}
			}
			for _, l := range []*L1{h.L1I, h.L1D} {
				st := l.Stats()
				if st.Hits[trace.User] == 0 || st.Hits[trace.Kernel] == 0 || st.InterferenceEvictions == 0 {
					t.Fatalf("%s: trace too tame to test the scan: %+v", l.cfg.Name, st)
				}
			}
			if h.L1D.Stats().Writebacks == 0 {
				t.Fatal("L1D: no dirty evictions")
			}
		})
	}
}

// diffCounters describes the first counter where got and want differ,
// or returns "".
func diffCounters(got, want *cache.Stats) string {
	for d := range got.Accesses {
		for _, c := range []struct {
			name      string
			got, want uint64
		}{
			{"accesses", got.Accesses[d], want.Accesses[d]},
			{"hits", got.Hits[d], want.Hits[d]},
			{"misses", got.Misses[d], want.Misses[d]},
			{"writes", got.Writes[d], want.Writes[d]},
		} {
			if c.got != c.want {
				return fmt.Sprintf("%s[%v] = %d, want %d", c.name, trace.Domain(d), c.got, c.want)
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"evictions", got.Evictions, want.Evictions},
		{"writebacks", got.Writebacks, want.Writebacks},
		{"interference evictions", got.InterferenceEvictions, want.InterferenceEvictions},
	} {
		if c.got != c.want {
			return fmt.Sprintf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	return ""
}
