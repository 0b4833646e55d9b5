package trace

import "encoding/binary"

// This file implements the packed trace arena format: an immutable,
// struct-of-arrays in-memory representation of a materialized trace.
// Access records compress well because consecutive records are highly
// correlated — addresses and PCs move in small strides — so the arena
// stores per-field byte streams instead of []Access:
//
//	ctrl   one byte per record carrying three 2-bit width codes (addr
//	       in bits 0-1, pc in 2-3, gap in 4-5); code c means the value
//	       occupies 1<<c bytes in its stream
//	addr   zigzag deltas from the previous record's address, stored
//	       little-endian in the coded width
//	pc     zigzag deltas from the previous record's PC, same encoding
//	opdom  one byte per record: op in the low bits, domain above it
//	gap    plain values (gaps are small non-negative counts)
//
// The coded fixed widths {1,2,4,8} replace the varints an earlier
// revision used: a varint decode is a serial chain (the next byte
// position is known only after the current length is found by
// inspecting continuation bits), whereas here every length comes from
// the ctrl byte, so each field decodes as one unconditional 8-byte
// load, a mask, and a shift-free position bump — no continuation-bit
// scan, no 7-bit fold chain, no length branches. The price is about a
// byte per record of width rounding plus the ctrl stream itself; the
// arena is an in-memory cache under a byte budget (internal/
// tracestore), so trading a few percent of residency for a decode
// that is pure straight-line ALU is the right side of the bargain.
//
// A 40-byte Access typically packs into 6-8 bytes, so a 400k-access
// trace costs ~3MB instead of ~16MB, and the sweep engine can keep many
// (app, seed) traces resident. Packed values are immutable after
// construction; any number of Cursors may replay one concurrently, and
// replay allocates nothing.

// domShift positions the domain bits above the op bits in the packed
// op+domain byte.
const domShift = 2

// widthMask selects the low 1<<c bytes of an 8-byte little-endian
// load, for width code c.
var widthMask = [4]uint64{0xff, 0xffff, 0xffff_ffff, ^uint64(0)}

// widthCode returns the smallest width code whose 1<<c bytes hold v.
func widthCode(v uint64) uint8 {
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

// appendCoded appends v in the fixed width named by code.
func appendCoded(b []byte, v uint64, code uint8) []byte {
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

// Packed is an immutable packed trace. Build one with Pack or
// PackSlice; replay it with Cursor.
type Packed struct {
	n     int
	ctrl  []byte
	addr  []byte
	pc    []byte
	opdom []byte
	gap   []byte
}

// Len reports the number of records in the trace.
func (p *Packed) Len() int { return p.n }

// SizeBytes reports the in-memory footprint of the packed streams —
// the quantity the tracestore LRU budget accounts.
func (p *Packed) SizeBytes() int64 {
	return int64(cap(p.ctrl) + cap(p.addr) + cap(p.pc) + cap(p.opdom) + cap(p.gap))
}

// zigzag maps a signed delta onto a small unsigned value.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }

// packer accumulates records into the packed streams.
type packer struct {
	p        Packed
	prevAddr uint64
	prevPC   uint64
}

func (pk *packer) append(a Access) {
	da := zigzag(int64(a.Addr - pk.prevAddr))
	dp := zigzag(int64(a.PC - pk.prevPC))
	ac, pc, gc := widthCode(da), widthCode(dp), widthCode(uint64(a.Gap))
	pk.p.ctrl = append(pk.p.ctrl, ac|pc<<2|gc<<4)
	pk.p.addr = appendCoded(pk.p.addr, da, ac)
	pk.p.pc = appendCoded(pk.p.pc, dp, pc)
	pk.p.opdom = append(pk.p.opdom, byte(a.Op)|byte(a.Domain)<<domShift)
	pk.p.gap = appendCoded(pk.p.gap, uint64(a.Gap), gc)
	pk.prevAddr, pk.prevPC = a.Addr, a.PC
	pk.p.n++
}

// streamPad is the zero padding appended to each coded stream so the
// decoder's unconditional 8-byte load is always in bounds from any
// valid position, even when the trailing values are narrow.
const streamPad = 8

// finish trims the streams to their final length (plus decoder padding)
// so SizeBytes reflects what is actually retained.
func (pk *packer) finish() *Packed {
	p := pk.p
	p.ctrl = append([]byte(nil), p.ctrl...)
	p.addr = padded(p.addr)
	p.pc = padded(p.pc)
	p.opdom = append([]byte(nil), p.opdom...)
	p.gap = padded(p.gap)
	return &p
}

func padded(s []byte) []byte {
	out := make([]byte, len(s)+streamPad)
	copy(out, s)
	return out
}

// Pack drains src into a packed trace, stopping after max records
// (max <= 0 means until the source ends — do not pass an unbounded
// source then).
func Pack(src Source, max int) *Packed {
	var pk packer
	if max > 0 {
		// Typical stream densities (addresses stride by a few KB, PCs by
		// less, gaps are small byte-wide counts): sized so the append loop
		// almost never regrows. finish trims whatever margin is left.
		pk.p.ctrl = make([]byte, 0, max)
		pk.p.addr = make([]byte, 0, 3*max)
		pk.p.pc = make([]byte, 0, 3*max)
		pk.p.opdom = make([]byte, 0, max)
		pk.p.gap = make([]byte, 0, 2*max)
	}
	for max <= 0 || pk.p.n < max {
		a, ok := src.Next()
		if !ok {
			break
		}
		pk.append(a)
	}
	return pk.finish()
}

// PackSlice packs an already-materialized record slice. It is the bulk
// twin of Pack: the stream slices and both delta predecessors live in
// locals across the loop instead of round-tripping through packer
// fields per record.
func PackSlice(recs []Access) *Packed {
	n := len(recs)
	ctrl := make([]byte, 0, n)
	addr := make([]byte, 0, 3*n)
	pc := make([]byte, 0, 3*n)
	opdom := make([]byte, 0, n)
	gap := make([]byte, 0, 2*n)
	var prevAddr, prevPC uint64
	for i := range recs {
		a := &recs[i]
		da := zigzag(int64(a.Addr - prevAddr))
		dp := zigzag(int64(a.PC - prevPC))
		ac, pcc, gc := widthCode(da), widthCode(dp), widthCode(uint64(a.Gap))
		ctrl = append(ctrl, ac|pcc<<2|gc<<4)
		addr = appendCoded(addr, da, ac)
		pc = appendCoded(pc, dp, pcc)
		opdom = append(opdom, byte(a.Op)|byte(a.Domain)<<domShift)
		gap = appendCoded(gap, uint64(a.Gap), gc)
		prevAddr, prevPC = a.Addr, a.PC
	}
	return &Packed{
		n:     n,
		ctrl:  append([]byte(nil), ctrl...),
		addr:  padded(addr),
		pc:    padded(pc),
		opdom: append([]byte(nil), opdom...),
		gap:   padded(gap),
	}
}

// Cursor is a zero-allocation replay position over a Packed trace. It
// implements FrameSource: cpu.Run replays it through DecodeFrame, with
// no per-access interface round-trip. The zero Cursor is an exhausted
// empty trace; obtain live ones from Packed.Cursor. Cursors are cheap
// values — take as many as needed; each replays the whole trace
// independently.
type Cursor struct {
	p        *Packed
	i        int
	addrPos  int
	pcPos    int
	gapPos   int
	prevAddr uint64
	prevPC   uint64
}

// Cursor returns a fresh replay cursor positioned at the first record.
func (p *Packed) Cursor() Cursor { return Cursor{p: p} }

// Len reports the number of records in the trace.
func (c *Cursor) Len() int {
	if c.p == nil {
		return 0
	}
	return c.p.n
}

// Remaining reports how many records are left to replay.
func (c *Cursor) Remaining() int { return c.Len() - c.i }

// Reset rewinds the cursor to the first record.
func (c *Cursor) Reset() { *c = Cursor{p: c.p} }

// Decode fills dst with up to len(dst) records, advancing the cursor,
// and reports how many it wrote (0 at end of trace). It is the bulk
// twin of Next: cursor state stays in registers across the batch, so
// per-record decode cost drops well below the one-at-a-time path.
// Decode performs no allocation.
func (c *Cursor) Decode(dst []Access) int {
	p := c.p
	if p == nil {
		return 0
	}
	n := p.n - c.i
	if n <= 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	out := dst[:n]
	addrS, pcS, gapS := p.addr, p.pc, p.gap
	ctrlS := p.ctrl[c.i : c.i+n]
	odS := p.opdom[c.i : c.i+n]
	addrPos, pcPos, gapPos := c.addrPos, c.pcPos, c.gapPos
	prevAddr, prevPC := c.prevAddr, c.prevPC
	for k := range out {
		// Every field is one unconditional 8-byte load masked to the
		// width the ctrl byte names; the three position bumps are pure
		// shifts of the codes, so there is no length branch anywhere in
		// the loop and the three streams' loads pipeline freely.
		ct := ctrlS[k]
		da := binary.LittleEndian.Uint64(addrS[addrPos:]) & widthMask[ct&3]
		addrPos += 1 << (ct & 3)
		dp := binary.LittleEndian.Uint64(pcS[pcPos:]) & widthMask[ct>>2&3]
		pcPos += 1 << (ct >> 2 & 3)
		gap := binary.LittleEndian.Uint64(gapS[gapPos:]) & widthMask[ct>>4&3]
		gapPos += 1 << (ct >> 4 & 3)
		od := odS[k]
		prevAddr += uint64(unzigzag(da))
		prevPC += uint64(unzigzag(dp))
		out[k] = Access{
			Addr:   prevAddr,
			PC:     prevPC,
			Gap:    uint32(gap),
			Op:     Op(od & (1<<domShift - 1)),
			Domain: Domain(od >> domShift),
		}
	}
	c.addrPos, c.pcPos, c.gapPos = addrPos, pcPos, gapPos
	c.prevAddr, c.prevPC = prevAddr, prevPC
	c.i += n
	return n
}

// Next decodes the next record. It performs no allocation.
func (c *Cursor) Next() (Access, bool) {
	if c.p == nil || c.i >= c.p.n {
		return Access{}, false
	}
	p := c.p
	ct := p.ctrl[c.i]
	da := binary.LittleEndian.Uint64(p.addr[c.addrPos:]) & widthMask[ct&3]
	dp := binary.LittleEndian.Uint64(p.pc[c.pcPos:]) & widthMask[ct>>2&3]
	gap := binary.LittleEndian.Uint64(p.gap[c.gapPos:]) & widthMask[ct>>4&3]
	od := p.opdom[c.i]

	c.addrPos += 1 << (ct & 3)
	c.pcPos += 1 << (ct >> 2 & 3)
	c.gapPos += 1 << (ct >> 4 & 3)
	c.prevAddr += uint64(unzigzag(da))
	c.prevPC += uint64(unzigzag(dp))
	a := Access{
		Addr:   c.prevAddr,
		PC:     c.prevPC,
		Gap:    uint32(gap),
		Op:     Op(od & (1<<domShift - 1)),
		Domain: Domain(od >> domShift),
	}
	c.i++
	return a, true
}
