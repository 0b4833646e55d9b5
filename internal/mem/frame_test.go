package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"mobilecache/internal/cache"
	"mobilecache/internal/trace"
)

// refFront is the front stage's reference model: one standalone LRU
// cache.Cache per L1, fed each record through Lookup, and on a miss
// through Fill (and, for the next-line prefetch, Probe and Fill). It
// shares no code with the L1 tag arrays it checks.
type refFront struct {
	l1i, l1d *cache.Cache
	block    uint64
	prefetch bool
	now      uint64
}

// frame runs recs through the model and returns the frame output the
// front stage must produce for them.
func (r *refFront) frame(recs []trace.Access) FrontFrame {
	ff := FrontFrame{Records: len(recs)}
	var busy uint64
	for _, a := range recs {
		r.now++
		kind, c := trace.KindData, r.l1d
		if a.Op == trace.Ifetch {
			kind, c = trace.KindIfetch, r.l1i
		}
		write := a.Op == trace.Store
		b := uint64(a.Gap) + 1
		busy += b
		ff.BusyByDomain[a.Domain] += b
		if _, _, hit := c.Lookup(a.Addr, write, a.Domain, r.now); hit {
			if write {
				ff.L1Writes[kind]++
			} else {
				ff.L1Reads[kind]++
			}
			continue
		}
		blockAddr := a.Addr &^ (r.block - 1)
		ff.L1Reads[kind]++ // tag probe
		ff.Events = append(ff.Events, Event{Busy: busy, Addr: blockAddr, Dom: a.Domain, Kind: Demand})
		busy = 0
		r.fill(&ff, kind, c, a.Addr, write, a.Domain)
		if !r.prefetch || kind == trace.KindIfetch {
			continue
		}
		next := blockAddr + r.block
		if _, _, hit := c.Probe(next); hit {
			continue
		}
		ff.L1Reads[kind]++
		ff.Events = append(ff.Events, Event{Addr: next, Dom: a.Domain, Kind: Prefetch})
		r.fill(&ff, kind, c, next, false, a.Domain)
	}
	ff.Busy = ff.BusyByDomain[trace.User] + ff.BusyByDomain[trace.Kernel]
	return ff
}

// fill is one L1 fill: a meter write, and a dirty victim's readout and
// writeback event.
func (r *refFront) fill(ff *FrontFrame, kind int, c *cache.Cache, addr uint64, write bool, dom trace.Domain) {
	ff.L1Writes[kind]++
	if res := c.Fill(addr, write, dom, r.now); res.Evicted && res.EvictedDirty {
		ff.L1Reads[kind]++
		ff.Events = append(ff.Events, Event{Addr: res.EvictedAddr, Dom: res.EvictedDomain, Kind: Writeback})
	}
}

// diffFrames describes the first field where got and want differ, or
// returns "".
func diffFrames(got, want *FrontFrame) string {
	switch {
	case got.Records != want.Records:
		return fmt.Sprintf("records = %d, want %d", got.Records, want.Records)
	case got.Busy != want.Busy || got.BusyByDomain != want.BusyByDomain:
		return fmt.Sprintf("busy = %d %v, want %d %v", got.Busy, got.BusyByDomain, want.Busy, want.BusyByDomain)
	case got.L1Reads != want.L1Reads || got.L1Writes != want.L1Writes:
		return fmt.Sprintf("meter reads/writes = %v/%v, want %v/%v", got.L1Reads, got.L1Writes, want.L1Reads, want.L1Writes)
	}
	for i := range min(len(got.Events), len(want.Events)) {
		if got.Events[i] != want.Events[i] {
			return fmt.Sprintf("event %d = %+v, want %+v", i, got.Events[i], want.Events[i])
		}
	}
	if len(got.Events) != len(want.Events) {
		return fmt.Sprintf("%d events, want %d", len(got.Events), len(want.Events))
	}
	return ""
}

// TestAccessFrameMatchesCacheModel checks the front stage against its
// reference model (refFront): after every frame the whole FrontFrame —
// each event's kind, block address, domain and busy cycles, the busy
// cycles by domain, and the L1 meter reads and writes — and each L1's
// per-domain accesses, hits and misses must equal the model's. It runs
// at every associativity from 1 to 32 ways, including rows wider than
// one scan window and rows that end in a partial window, with the
// next-line prefetcher off and on.
func TestAccessFrameMatchesCacheModel(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 4, 6, 8, 12, 16, 32} {
		t.Run(fmt.Sprintf("%d-way", ways), func(t *testing.T) {
			for _, prefetch := range []bool{false, true} {
				t.Run(fmt.Sprintf("prefetch=%v", prefetch), func(t *testing.T) {
					testFrontMatchesModel(t, ways, prefetch)
				})
			}
		})
	}
}

func testFrontMatchesModel(t *testing.T, ways int, prefetch bool) {
	// 16 sets keeps the rows contended: the block pool below is three
	// times the capacity, so hits, misses, clean and dirty evictions
	// and cross-domain victims all occur. Half the pool sits at the top
	// of the address space, so a victim's rebuilt address carries a
	// wide tag.
	cfg := L1Config{SizeBytes: uint64(ways * 64 * 16), Ways: ways, BlockBytes: 64}
	icfg, dcfg := cfg, cfg
	icfg.Name, dcfg.Name = "L1I", "L1D"
	f, err := NewFront(icfg, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	f.NextLinePrefetch = prefetch
	model := func() *cache.Cache {
		c, err := cache.New(cache.Config{SizeBytes: cfg.SizeBytes, Ways: ways, BlockBytes: 64, Policy: cache.LRU})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := refFront{l1i: model(), l1d: model(), block: 64, prefetch: prefetch}

	rng := rand.New(rand.NewSource(int64(ways)))
	blocks := uint64(3 * ways * 16)
	region := [2]uint64{0, 0xffff_ff00_0000_0000}
	geom := f.FrameGeom()
	var recs [256]trace.Access
	var pre [256]FramePre
	var got FrontFrame
	for done := 0; done < 40_000; {
		n := 1 + rng.Intn(len(recs))
		for k := 0; k < n; k++ {
			b := rng.Uint64() % blocks
			recs[k] = trace.Access{
				Addr:   region[b%2] + b/2*64 + uint64(rng.Intn(64)),
				Op:     trace.Op(rng.Intn(3)),
				Domain: trace.Domain(rng.Intn(2)),
				Gap:    uint32(rng.Intn(4)),
			}
			pre[k] = trace.Precompute(&recs[k], &geom)
		}
		f.Frame(pre[:n], &got)
		want := ref.frame(recs[:n])
		done += n
		if msg := diffFrames(&got, &want); msg != "" {
			t.Fatalf("frame ending at record %d: %s", done, msg)
		}
		for _, l := range []struct {
			name      string
			got, want *cache.Stats
		}{{"L1I", f.L1I.Stats(), ref.l1i.Stats()}, {"L1D", f.L1D.Stats(), ref.l1d.Stats()}} {
			if l.got.Accesses != l.want.Accesses || l.got.Hits != l.want.Hits || l.got.Misses != l.want.Misses {
				t.Fatalf("%s after %d records: accesses/hits/misses %v/%v/%v, want %v/%v/%v", l.name, done,
					l.got.Accesses, l.got.Hits, l.got.Misses, l.want.Accesses, l.want.Hits, l.want.Misses)
			}
		}
	}
	for _, l := range []struct {
		l1  *L1
		ref *cache.Cache
	}{{f.L1I, ref.l1i}, {f.L1D, ref.l1d}} {
		st := l.ref.Stats()
		if st.Hits[trace.User] == 0 || st.Hits[trace.Kernel] == 0 || st.InterferenceEvictions == 0 || st.Writebacks == 0 && l.l1 == f.L1D {
			t.Fatalf("%s: trace too tame to test the front stage: %+v", l.l1.cfg.Name, st)
		}
		for i := len(l.l1.seqs); i < len(l.l1.tags); i++ {
			if l.l1.tags[i] != invalidTag {
				t.Fatalf("%s: padding tags[%d] = %#x, want invalidTag", l.l1.cfg.Name, i, l.l1.tags[i])
			}
		}
	}
}
