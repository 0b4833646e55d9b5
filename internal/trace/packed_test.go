package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
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
	if cur.remaining() != 0 {
		t.Fatalf("Remaining = %d after drain", cur.remaining())
	}
}

func TestPackedCursorReset(t *testing.T) {
	recs := synthAccesses(257)
	p := PackSlice(recs)
	cur := p.Cursor()
	for i := 0; i < 100; i++ {
		cur.Next()
	}
	cur.reset()
	if cur.remaining() != len(recs) {
		t.Fatalf("Remaining after Reset = %d, want %d", cur.remaining(), len(recs))
	}
	got, ok := cur.Next()
	if !ok || got != recs[0] {
		t.Fatalf("first record after Reset = %+v, want %+v", got, recs[0])
	}
}

func TestPackFromSource(t *testing.T) {
	recs := synthAccesses(500)
	p := PackSlice(Collect(NewSliceSource(recs), 200))
	if p.Len() != 200 {
		t.Fatalf("packing the first 200 records kept %d", p.Len())
	}
	cur := p.Cursor()
	got := Collect(&cur, 0)
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// refWidthCode and refAppendCoded are the one-pass append encoder
// PackSlice replaced, kept as its reference: the smallest width code
// by comparison branches, and each value appended in its coded width.
func refWidthCode(v uint64) uint8 {
	switch {
	case v < 1<<8:
		return 0
	case v < 1<<16:
		return 1
	case v < 1<<32:
		return 2
	default:
		return 3
	}
}

func refAppendCoded(b []byte, v uint64, code uint8) []byte {
	switch code {
	case 0:
		return append(b, byte(v))
	case 1:
		return append(b, byte(v), byte(v>>8))
	case 2:
		return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	default:
		return binary.LittleEndian.AppendUint64(b, v)
	}
}

// refPack encodes recs with the reference encoder into the five
// streams, each coded stream followed by streamPad zero bytes.
func refPack(recs []Access) (ctrl, addr, pc, opdom, gap []byte) {
	var prevAddr, prevPC uint64
	for _, a := range recs {
		da := zigzag(int64(a.Addr - prevAddr))
		dp := zigzag(int64(a.PC - prevPC))
		ac, pcc, gc := refWidthCode(da), refWidthCode(dp), refWidthCode(uint64(a.Gap))
		ctrl = append(ctrl, ac|pcc<<2|gc<<4)
		addr = refAppendCoded(addr, da, ac)
		pc = refAppendCoded(pc, dp, pcc)
		opdom = append(opdom, byte(a.Op)|byte(a.Domain)<<domShift)
		gap = refAppendCoded(gap, uint64(a.Gap), gc)
		prevAddr, prevPC = a.Addr, a.PC
	}
	pad := make([]byte, streamPad)
	return ctrl, append(addr, pad...), append(pc, pad...), opdom, append(gap, pad...)
}

// widthMixAccesses draws n records whose address and PC deltas and
// gaps land in every width class, including the extremes (deltas up to
// MaxUint64, gaps up to MaxUint32).
func widthMixAccesses(r *rand.Rand, n int) []Access {
	value := func(class int) uint64 {
		switch class {
		case 0:
			return uint64(r.IntN(1 << 8))
		case 1:
			return uint64(r.IntN(1 << 16))
		case 2:
			return uint64(r.Uint32())
		case 3:
			return r.Uint64()
		default:
			return math.MaxUint64 - uint64(r.IntN(2))
		}
	}
	recs := make([]Access, n)
	var addr, pc uint64
	for i := range recs {
		addr += value(r.IntN(5))
		pc -= value(r.IntN(5))
		recs[i] = Access{
			Addr:   addr,
			PC:     pc,
			Gap:    uint32(value(r.IntN(5))),
			Op:     Op(r.IntN(NumOps)),
			Domain: Domain(r.IntN(NumDomains)),
		}
	}
	return recs
}

// TestPackSliceMatchesReferenceEncoder: the two-pass PackSlice writes
// the reference encoder's five streams byte for byte on randomized
// record sets of every width mix, on the synthetic trace mix and on
// the empty trace.
func TestPackSliceMatchesReferenceEncoder(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	sets := [][]Access{nil, synthAccesses(5000)}
	for i := 0; i < 300; i++ {
		sets = append(sets, widthMixAccesses(r, r.IntN(600)))
	}
	for i, recs := range sets {
		p := PackSlice(recs)
		ctrl, addr, pc, opdom, gap := refPack(recs)
		for _, s := range []struct {
			name      string
			got, want []byte
		}{{"ctrl", p.ctrl, ctrl}, {"addr", p.addr, addr}, {"pc", p.pc, pc}, {"opdom", p.opdom, opdom}, {"gap", p.gap, gap}} {
			if !bytes.Equal(s.got, s.want) {
				t.Fatalf("set %d (%d records): %s stream differs from the reference encoder", i, len(recs), s.name)
			}
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
			cur.reset()
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
	if cur.remaining() != 500-137 {
		t.Fatalf("Remaining after partial decode = %d, want %d", cur.remaining(), 500-137)
	}
	if _, ok := cur.Next(); !ok {
		t.Fatal("Next failed mid-trace")
	}
	if cur.remaining() != 500-138 {
		t.Fatalf("Remaining after Next = %d, want %d", cur.remaining(), 500-138)
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
	cur.reset()
	if cur.remaining() != 300 {
		t.Fatalf("Remaining after Reset = %d, want 300", cur.remaining())
	}
	got := Collect(&cur, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("replay after mid-frame Reset differs from source")
	}
}

// remaining and reset are the test's view of a cursor's position.
func (c *Cursor) remaining() int { return c.p.n - c.i }
func (c *Cursor) reset()         { *c = Cursor{p: c.p} }

func (c *SliceCursor) remaining() int { return len(c.recs) - c.i }
func (c *SliceCursor) reset()         { c.i = 0 }
