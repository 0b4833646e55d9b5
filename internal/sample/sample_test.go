package sample

import (
	"strings"
	"testing"

	"mobilecache/internal/trace"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"1/1", Spec{Factor: 1}},
		{"1", Spec{Factor: 1}},
		{"1/8", Spec{Factor: 8}},
		{"8", Spec{Factor: 8}},
		{" 1/8 ", Spec{Factor: 8}},
		{"hash:1/8", Spec{Factor: 8, Hash: true}},
		{"hash:4", Spec{Factor: 4, Hash: true}},
		{"1/128", Spec{Factor: 128}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in   string
		frag string
	}{
		{"0", "at least 1/1"},
		{"1/0", "at least 1/1"},
		{"-8", "at least 1/1"},
		{"3", "power of two"},
		{"1/6", "power of two"},
		{"1/256", "finer than"},
		{"fast", "not a sampling factor"},
		{"", "not a sampling factor"},
		{"hash:", "not a sampling factor"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q): expected error", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) error %q does not mention %q", c.in, err, c.frag)
		}
	}
}

func TestSpecString(t *testing.T) {
	cases := []struct {
		in   Spec
		want string
	}{
		{Spec{}, "1/1"},
		{Spec{Factor: 1}, "1/1"},
		{Spec{Factor: 1, Hash: true}, "1/1"},
		{Spec{Factor: 8}, "1/8"},
		{Spec{Factor: 8, Hash: true}, "hash:1/8"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.in, got, c.want)
		}
	}
	// Canonical strings round-trip through Parse.
	for _, s := range []Spec{{Factor: 1}, {Factor: 2}, {Factor: 8, Hash: true}, {Factor: 128}} {
		got, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", s.String(), err)
		}
		if got.Norm() != s.Norm() {
			t.Errorf("round trip %+v -> %q -> %+v", s, s.String(), got)
		}
	}
}

func TestValidate(t *testing.T) {
	for _, f := range []int{0, 1, 2, 4, 8, 16, 32, 64, 128} {
		if err := (Spec{Factor: f}).Validate(); err != nil {
			t.Errorf("factor %d: unexpected error %v", f, err)
		}
	}
	for _, f := range []int{-1, 3, 6, 12, 100, 256} {
		if err := (Spec{Factor: f}).Validate(); err == nil {
			t.Errorf("factor %d: expected error", f)
		}
	}
}

// Both selection modes must select exactly NumGroups/Factor groups —
// the scaling rules assume the sampled fraction is exact, not
// approximate.
func TestSelectionCountExact(t *testing.T) {
	for _, hash := range []bool{false, true} {
		for f := 1; f <= MaxFactor; f *= 2 {
			sel, err := NewSelector(Spec{Factor: f, Hash: hash}, 64)
			if err != nil {
				t.Fatalf("factor %d hash %v: %v", f, hash, err)
			}
			if got, want := sel.Groups(), NumGroups/f; got != want {
				t.Errorf("factor %d hash %v: %d groups selected, want %d", f, hash, got, want)
			}
			n := 0
			for g := 0; g < NumGroups; g++ {
				if sel.GroupRank(g) >= 0 {
					n++
				}
			}
			if n != sel.Groups() {
				t.Errorf("factor %d hash %v: SelectsGroup count %d != Groups() %d", f, hash, n, sel.Groups())
			}
		}
	}
}

// Hash mode must genuinely differ from low-bit mode at every factor
// above 1 (otherwise the stride-dodging claim is vacuous).
func TestHashSelectionDiffers(t *testing.T) {
	for f := 2; f <= MaxFactor; f *= 2 {
		low, err := NewSelector(Spec{Factor: f}, 64)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := NewSelector(Spec{Factor: f, Hash: true}, 64)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for g := 0; g < NumGroups; g++ {
			if (low.GroupRank(g) >= 0) != (hash.GroupRank(g) >= 0) {
				same = false
				break
			}
		}
		if same {
			t.Errorf("factor %d: hash selection identical to low-bit selection", f)
		}
	}
}

// Hash selection is deterministic: two independently built selectors
// agree group-for-group (memo keys and checkpoint resume depend on it).
func TestHashSelectionDeterministic(t *testing.T) {
	a, _ := NewSelector(Spec{Factor: 8, Hash: true}, 64)
	b, _ := NewSelector(Spec{Factor: 8, Hash: true}, 64)
	for g := 0; g < NumGroups; g++ {
		if (a.GroupRank(g) >= 0) != (b.GroupRank(g) >= 0) {
			t.Fatalf("group %d: selection not deterministic", g)
		}
	}
}

func TestRankBijection(t *testing.T) {
	for _, hash := range []bool{false, true} {
		for f := 1; f <= MaxFactor; f *= 2 {
			sel, err := NewSelector(Spec{Factor: f, Hash: hash}, 64)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int]int)
			for g := 0; g < NumGroups; g++ {
				r := sel.GroupRank(g)
				if r >= 0 {
					if prev, dup := seen[r]; dup {
						t.Fatalf("factor %d hash %v: rank %d assigned to groups %d and %d", f, hash, r, prev, g)
					}
					seen[r] = g
					if r >= sel.Groups() {
						t.Fatalf("factor %d hash %v group %d: rank %d out of range [0,%d)", f, hash, g, r, sel.Groups())
					}
				}
			}
			if len(seen) != sel.Groups() {
				t.Fatalf("factor %d hash %v: %d ranks assigned, want %d", f, hash, len(seen), sel.Groups())
			}
			// Ranks ascend with group index: the dense numbering is
			// order-preserving, so liveIndex arithmetic in sampled
			// shadow directories stays monotonic.
			last := -1
			for g := 0; g < NumGroups; g++ {
				if r := sel.GroupRank(g); r >= 0 {
					if r <= last {
						t.Fatalf("factor %d hash %v: rank %d at group %d not ascending (prev %d)", f, hash, r, g, last)
					}
					last = r
				}
			}
		}
	}
}

func TestFactorOneSelectsEverything(t *testing.T) {
	for _, hash := range []bool{false, true} {
		sel, err := NewSelector(Spec{Factor: 1, Hash: hash}, 64)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Groups() != NumGroups {
			t.Fatalf("hash %v: factor 1 selects %d groups, want %d", hash, sel.Groups(), NumGroups)
		}
		for g := 0; g < NumGroups; g++ {
			if sel.GroupRank(g) != g {
				t.Fatalf("hash %v: factor 1 rank of group %d is %d, want identity", hash, g, sel.GroupRank(g))
			}
		}
		for _, addr := range []uint64{0, 63, 64, 0xdeadbeef, 1 << 40} {
			if !sel.SelectsAddr(addr) {
				t.Fatalf("hash %v: factor 1 rejected addr %#x", hash, addr)
			}
		}
	}
}

func TestSelectsAddrMatchesGroup(t *testing.T) {
	sel, err := NewSelector(Spec{Factor: 8, Hash: true}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < NumGroups; g++ {
		// Several addresses landing in group g: vary tag and offset.
		for _, base := range []uint64{0, 1 << 20, 0xabc00000} {
			addr := base + uint64(g)*64 + 17
			if sel.SelectsAddr(addr) != (sel.GroupRank(g) >= 0) {
				t.Fatalf("addr %#x in group %d: SelectsAddr disagrees with GroupRank", addr, g)
			}
		}
	}
}

func TestNewSelectorErrors(t *testing.T) {
	if _, err := NewSelector(Spec{Factor: 3}, 64); err == nil {
		t.Error("factor 3: expected error")
	}
	if _, err := NewSelector(Spec{Factor: 8}, 48); err == nil {
		t.Error("block size 48: expected error")
	}
	if _, err := NewSelector(Spec{Factor: 8}, 0); err == nil {
		t.Error("block size 0: expected error")
	}
}

func TestLiveSets(t *testing.T) {
	sel, _ := NewSelector(Spec{Factor: 8}, 64)
	if got := sel.LiveSets(1024); got != 128 {
		t.Errorf("LiveSets(1024) at 1/8 = %d, want 128", got)
	}
	if got := sel.LiveSets(128); got != 16 {
		t.Errorf("LiveSets(128) at 1/8 = %d, want 16", got)
	}
	full, _ := NewSelector(Spec{Factor: 1}, 64)
	if got := full.LiveSets(1024); got != 1024 {
		t.Errorf("LiveSets(1024) at 1/1 = %d, want 1024", got)
	}
}

// synthetic trace for filter tests: addresses walk the groups with a
// mix of strides so every group sees traffic.
func testTrace(n int) []trace.Access {
	recs := make([]trace.Access, n)
	for i := range recs {
		addr := uint64(i)*64*3 + uint64(i*i)*7
		op := trace.Load
		if i%7 == 3 {
			op = trace.Store
		}
		dom := trace.User
		if i%5 == 0 {
			dom = trace.Kernel
		}
		recs[i] = trace.Access{Addr: addr, PC: uint64(i) * 4, Gap: uint32(i % 9), Op: op, Domain: dom}
	}
	return recs
}

// naiveFilter is the reference model for Source: keep selected
// records, redistribute every record's instruction count onto the
// kept stream at 1/factor through an integer carry.
func naiveFilter(sel *Selector, recs []trace.Access) []trace.Access {
	var out []trace.Access
	f := int64(sel.Factor())
	var carry int64
	for _, a := range recs {
		carry += int64(a.Gap) + 1
		if !sel.SelectsAddr(a.Addr) {
			continue
		}
		g := carry / f
		if g < 1 {
			g = 1
		}
		carry -= g * f
		a.Gap = uint32(g - 1)
		out = append(out, a)
	}
	return out
}

// All three fill paths (slice, packed, generic) must agree with a
// naive filter record-for-record, across decode window sizes that do
// and do not divide the trace length.
func TestSourceDecodeEquivalence(t *testing.T) {
	recs := testTrace(5000)
	packed := trace.PackSlice(recs)
	for _, hash := range []bool{false, true} {
		for _, f := range []int{1, 2, 8, 128} {
			sel, err := NewSelector(Spec{Factor: f, Hash: hash}, 64)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveFilter(sel, recs)
			for _, window := range []int{1, 7, 256, 4096} {
				sc := trace.NewSliceCursor(recs)
				pc := packed.Cursor()
				gc := trace.NewSliceCursor(recs)
				srcs := map[string]trace.Source{
					"slice":   &sc,
					"packed":  &pc,
					"generic": trace.NewLimitSource(&gc, len(recs)),
				}
				for name, under := range srcs {
					s := NewSource(sel, under)
					var got []trace.Access
					buf := make([]trace.Access, window)
					for {
						n := s.Decode(buf)
						got = append(got, buf[:n]...)
						if n < window {
							break
						}
					}
					if len(got) != len(want) {
						t.Fatalf("hash %v factor %d window %d %s: %d records, want %d", hash, f, window, name, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("hash %v factor %d window %d %s: record %d = %+v, want %+v", hash, f, window, name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestSourceNext(t *testing.T) {
	recs := testTrace(2000)
	sel, err := NewSelector(Spec{Factor: 4, Hash: true}, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveFilter(sel, recs)
	sc := trace.NewSliceCursor(recs)
	s := NewSource(sel, &sc)
	for i, w := range want {
		got, ok := s.Next()
		if !ok {
			t.Fatalf("record %d: premature end", i)
		}
		if got != w {
			t.Fatalf("record %d = %+v, want %+v", i, got, w)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("expected end of trace")
	}
}

// The gap redistribution conserves instructions: factor times the
// filtered stream's instruction count equals the raw instructions seen
// up to the last kept record, within one factor's worth of trailing
// remainder. This is the property that keeps sampled simulated time —
// and with it every leakage and retention account — unbiased even when
// the selected groups' reference popularity is far from 1/factor.
func TestSourceInstructionConservation(t *testing.T) {
	recs := testTrace(20_000)
	for _, hash := range []bool{false, true} {
		for _, f := range []int{1, 2, 8, 128} {
			sel, err := NewSelector(Spec{Factor: f, Hash: hash}, 64)
			if err != nil {
				t.Fatal(err)
			}
			var seen uint64    // instructions up to and including the last kept record
			var pending uint64 // instructions since the last kept record
			kept := 0
			for _, a := range recs {
				pending += a.Instructions()
				if sel.SelectsAddr(a.Addr) {
					seen += pending
					pending = 0
					kept++
				}
			}
			if kept == 0 {
				t.Fatalf("hash=%v factor %d: no records kept", hash, f)
			}
			sc := trace.NewSliceCursor(recs)
			s := NewSource(sel, &sc)
			var emitted uint64
			for {
				a, ok := s.Next()
				if !ok {
					break
				}
				emitted += a.Instructions()
			}
			scaled := emitted * uint64(f)
			var diff uint64
			if scaled > seen {
				diff = scaled - seen
			} else {
				diff = seen - scaled
			}
			if diff >= uint64(f) {
				t.Errorf("hash=%v factor %d: scaled instructions %d vs seen %d (diff %d >= factor)",
					hash, f, scaled, seen, diff)
			}
			st := s.Stats()
			var totSeen, totKept uint64
			for op := 0; op < trace.NumOps; op++ {
				totSeen += st.Seen[op]
				totKept += st.Kept[op]
			}
			if totSeen != uint64(len(recs)) || totKept != uint64(kept) {
				t.Errorf("hash=%v factor %d: stats seen/kept %d/%d, want %d/%d",
					hash, f, totSeen, totKept, len(recs), kept)
			}
		}
	}
}
