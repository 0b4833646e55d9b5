package trace

import (
	"encoding/binary"
	"math/bits"
)

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
// A 24-byte Access typically packs into about 7 bytes, so a
// 400k-access trace costs ~2.8MB instead of ~9.6MB, and the sweep
// engine can keep many (app, seed) traces resident. Packed values are
// immutable after construction; any number of Cursors may replay one
// concurrently, and replay allocates nothing.

// domShift positions the domain bits above the op bits in the packed
// op+domain byte.
const domShift = 2

// widthMask selects the low 1<<c bytes of an 8-byte little-endian
// load, for width code c.
var widthMask = [4]uint64{0xff, 0xffff, 0xffff_ffff, ^uint64(0)}

// lenCode maps bits.Len64(v) to the smallest width code c whose 1<<c
// bytes hold v.
var lenCode = func() (t [65]uint8) {
	for n := range t {
		switch {
		case n > 32:
			t[n] = 3
		case n > 16:
			t[n] = 2
		case n > 8:
			t[n] = 1
		}
	}
	return t
}()

// Packed is an immutable packed trace. Build one with PackSlice;
// replay it with Cursor.
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

// streamPad is the zero padding after each coded stream: it keeps the
// decoder's unconditional 8-byte load in bounds from any valid
// position, and likewise the encoder's 8-byte store.
const streamPad = 8

// PackSlice packs a materialized record slice in two passes. The first
// computes every record's ctrl byte and, from the width codes, the
// exact length of each coded stream. The second allocates each stream
// once at its final size plus streamPad and writes every field as one
// unconditional 8-byte little-endian store, advancing by the coded
// width: the mirror of the decoder's masked load. A store's bytes past
// the field's width are zero (the value fits its width) and the next
// field's store overwrites them anyway, so the streams hold exactly
// the coded values followed by zero padding, with no scratch buffers
// and no trimming copies.
func PackSlice(recs []Access) *Packed {
	n := len(recs)
	ctrl := make([]byte, n)
	opdom := make([]byte, n)
	var addrLen, pcLen, gapLen int
	var prevAddr, prevPC uint64
	for i := range recs {
		a := &recs[i]
		ac := lenCode[bits.Len64(zigzag(int64(a.Addr-prevAddr)))]
		pcc := lenCode[bits.Len64(zigzag(int64(a.PC-prevPC)))]
		gc := lenCode[bits.Len32(a.Gap)]
		ctrl[i] = ac | pcc<<2 | gc<<4
		opdom[i] = byte(a.Op) | byte(a.Domain)<<domShift
		addrLen += 1 << ac
		pcLen += 1 << pcc
		gapLen += 1 << gc
		prevAddr, prevPC = a.Addr, a.PC
	}

	addr := make([]byte, addrLen+streamPad)
	pc := make([]byte, pcLen+streamPad)
	gap := make([]byte, gapLen+streamPad)
	var addrPos, pcPos, gapPos int
	prevAddr, prevPC = 0, 0
	for i := range recs {
		a := &recs[i]
		ct := ctrl[i]
		binary.LittleEndian.PutUint64(addr[addrPos:], zigzag(int64(a.Addr-prevAddr)))
		addrPos += 1 << (ct & 3)
		binary.LittleEndian.PutUint64(pc[pcPos:], zigzag(int64(a.PC-prevPC)))
		pcPos += 1 << (ct >> 2 & 3)
		binary.LittleEndian.PutUint64(gap[gapPos:], uint64(a.Gap))
		gapPos += 1 << (ct >> 4 & 3)
		prevAddr, prevPC = a.Addr, a.PC
	}
	return &Packed{n: n, ctrl: ctrl, addr: addr, pc: pc, opdom: opdom, gap: gap}
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
