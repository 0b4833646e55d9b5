package trace

import (
	"reflect"
	"testing"
)

// synthAccesses builds a deterministic record mix exercising every op,
// domain, large address jumps (user<->kernel) and varied gaps.
func synthAccesses(n int) []Access {
	recs := make([]Access, n)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return state * 0x2545f4914f6cdd1d
	}
	for i := range recs {
		r := next()
		dom := User
		base := uint64(0x1000_0000)
		if r&1 == 1 {
			dom = Kernel
			base = 0xffff_8000_0100_0000
		}
		recs[i] = Access{
			Addr:   base + (r>>8)%(1<<22)*8,
			PC:     base + (r>>32)%(1<<16)*4,
			Gap:    uint32(r >> 56 & 0x3f),
			Op:     Op(r >> 2 % NumOps),
			Domain: dom,
		}
	}
	return recs
}

func TestPackedRoundTrip(t *testing.T) {
	recs := synthAccesses(10_000)
	p := PackSlice(recs)
	if p.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(recs))
	}
	cur := p.Cursor()
	for i, want := range recs {
		got, ok := cur.Next()
		if !ok {
			t.Fatalf("cursor ended at %d of %d", i, len(recs))
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := cur.Next(); ok {
		t.Fatal("cursor yields records past the end")
	}
	if cur.Remaining() != 0 {
		t.Fatalf("Remaining = %d after drain", cur.Remaining())
	}
}

func TestPackedCursorReset(t *testing.T) {
	recs := synthAccesses(257)
	p := PackSlice(recs)
	cur := p.Cursor()
	for i := 0; i < 100; i++ {
		cur.Next()
	}
	cur.Reset()
	if cur.Remaining() != len(recs) {
		t.Fatalf("Remaining after Reset = %d, want %d", cur.Remaining(), len(recs))
	}
	got, ok := cur.Next()
	if !ok || got != recs[0] {
		t.Fatalf("first record after Reset = %+v, want %+v", got, recs[0])
	}
}

func TestPackFromSource(t *testing.T) {
	recs := synthAccesses(500)
	p := Pack(NewSliceSource(recs), 200)
	if p.Len() != 200 {
		t.Fatalf("Pack with max 200 kept %d records", p.Len())
	}
	cur := p.Cursor()
	got := Collect(&cur, 0)
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestPackedEmpty(t *testing.T) {
	p := PackSlice(nil)
	if p.Len() != 0 {
		t.Fatalf("empty pack Len = %d", p.Len())
	}
	cur := p.Cursor()
	if _, ok := cur.Next(); ok {
		t.Fatal("empty cursor yields a record")
	}
	var zero Cursor
	if _, ok := zero.Next(); ok {
		t.Fatal("zero cursor yields a record")
	}
}

func TestPackedCompresses(t *testing.T) {
	recs := synthAccesses(10_000)
	p := PackSlice(recs)
	raw := int64(len(recs)) * 24 // unpacked struct payload lower bound
	if p.SizeBytes() >= raw {
		t.Fatalf("packed %d bytes not smaller than raw %d", p.SizeBytes(), raw)
	}
}

// TestPackedCursorsIndependent proves concurrent replay safety at the
// API level: two cursors over one Packed do not disturb each other.
func TestPackedCursorsIndependent(t *testing.T) {
	recs := synthAccesses(100)
	p := PackSlice(recs)
	a, b := p.Cursor(), p.Cursor()
	for i := 0; i < 50; i++ {
		a.Next()
	}
	got, ok := b.Next()
	if !ok || got != recs[0] {
		t.Fatalf("second cursor saw %+v, want %+v", got, recs[0])
	}
}

// BenchmarkPackedDecode measures the raw zero-allocation decode rate.
func BenchmarkPackedDecode(b *testing.B) {
	p := PackSlice(synthAccesses(1 << 16))
	cur := p.Cursor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cur.Next(); !ok {
			cur.Reset()
		}
	}
}

// TestCursorDecodePartialFinalFrame pins the bulk decoder's behavior
// when the last batch is smaller than the destination buffer: the final
// Decode must report exactly the leftover count, fill only that prefix,
// and the next Decode must report 0.
func TestCursorDecodePartialFinalFrame(t *testing.T) {
	recs := synthAccesses(1000)
	p := PackSlice(recs)
	cur := p.Cursor()
	buf := make([]Access, 256)
	var got []Access
	for {
		n := cur.Decode(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	// 1000 = 3*256 + 232: the final frame is partial.
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("decoded records differ from source")
	}
	if n := cur.Decode(buf); n != 0 {
		t.Fatalf("Decode after exhaustion = %d, want 0", n)
	}
}

// TestCursorRemainingAfterPartialDecode checks Remaining stays exact
// through a mix of partial Decode and single-record Next calls.
func TestCursorRemainingAfterPartialDecode(t *testing.T) {
	recs := synthAccesses(500)
	p := PackSlice(recs)
	cur := p.Cursor()
	buf := make([]Access, 137)
	if n := cur.Decode(buf); n != 137 {
		t.Fatalf("first Decode = %d, want 137", n)
	}
	if cur.Remaining() != 500-137 {
		t.Fatalf("Remaining after partial decode = %d, want %d", cur.Remaining(), 500-137)
	}
	if _, ok := cur.Next(); !ok {
		t.Fatal("Next failed mid-trace")
	}
	if cur.Remaining() != 500-138 {
		t.Fatalf("Remaining after Next = %d, want %d", cur.Remaining(), 500-138)
	}
	// Drain: the leftover count must be exactly Remaining.
	total := 138
	for {
		n := cur.Decode(buf)
		if n == 0 {
			break
		}
		total += n
	}
	if total != 500 {
		t.Fatalf("drained %d records, want 500", total)
	}
}

// TestCursorResetMidFrame resets in the middle of a decoded frame and
// requires the replay to restart from the view's first record with all
// delta predecessors rewound.
func TestCursorResetMidFrame(t *testing.T) {
	recs := synthAccesses(300)
	p := PackSlice(recs)
	cur := p.Cursor()
	buf := make([]Access, 128)
	cur.Decode(buf)
	cur.Decode(buf[:70]) // stop mid-trace, mid-"frame"
	cur.Reset()
	if cur.Remaining() != 300 {
		t.Fatalf("Remaining after Reset = %d, want 300", cur.Remaining())
	}
	got := Collect(&cur, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("replay after mid-frame Reset differs from source")
	}
}
