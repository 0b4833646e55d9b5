package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"mobilecache/internal/trace"
)

// FrontOutput is a front stage's output over a whole replay, frame by
// frame, in the compact form the trace arena stores: a machine whose
// front key matches replays it through its back stage alone (see
// sim.Run) and never decodes the trace or touches its L1s.
//
// Each frame is a header of uvarints — record count, busy cycles, the
// user domain's busy cycles, event count, and the L1D then L1I meter
// reads and writes — followed by its events. An event is a control
// byte (kind in bits 0-1, domain in bit 2, and the byte widths of the
// two fields that follow in bits 3-4 and 5-6), then its busy cycles
// (0, 1, 2 or 8 bytes) and the zigzag distance of its block number
// from a prediction (1, 2, 4 or 8 bytes): the previous event of the
// same kind and domain, or for a prefetch the last demand fill's next
// block. Block numbers count the smaller L1's blocks, so every event
// address is a whole number of them. The coded widths let the decoder
// read each field with one unaligned load and a mask, without a branch
// per byte, as the packed trace's cursor does. On the standard
// machines an event takes about 5 bytes, and a 400k-access trace's
// output about half a megabyte.
//
// The encoding fills fixed-size chunks, each holding whole frames, so
// building an output never copies it and wastes at most the tail of
// the last chunk.
type FrontOutput struct {
	chunks [][]byte
	shift  uint
	enc    frontCodec
}

// frontChunkBytes is the capacity of one chunk of a FrontOutput.
const frontChunkBytes = 32 << 10

// NewFrontOutput starts an empty output for f's events.
func NewFrontOutput(f *Front) *FrontOutput {
	blk := min(f.L1I.cfg.BlockBytes, f.L1D.cfg.BlockBytes)
	return &FrontOutput{shift: uint(bits.TrailingZeros(uint(blk)))}
}

// SizeBytes is the output's memory footprint, which the trace arena
// charges against its budget.
func (o *FrontOutput) SizeBytes() int64 {
	n := int64(64 + 24*cap(o.chunks))
	for _, c := range o.chunks {
		n += int64(cap(c))
	}
	return n
}

// The field widths an event's control byte codes, the code of each
// byte count (the smallest width that holds it), and the value masks.
var (
	busyWidth = [4]int{0, 1, 2, 8}
	addrWidth = [4]int{1, 2, 4, 8}
	busyCode  = [9]byte{0, 1, 2, 3, 3, 3, 3, 3, 3}
	addrCode  = [9]byte{0, 0, 1, 2, 2, 3, 3, 3, 3}
	busyMask  = [4]uint64{0, 0xff, 0xffff, ^uint64(0)}
	addrMask  = [4]uint64{0xff, 0xffff, 0xffffffff, ^uint64(0)}
)

// frontCodec is the block-number predictor state an encoder and a
// decoder each keep, in step.
type frontCodec struct {
	prev       [3][trace.NumDomains]uint64
	lastDemand uint64
}

func (c *frontCodec) predict(kind EventKind, dom trace.Domain) uint64 {
	if kind == Prefetch {
		return c.lastDemand + 1
	}
	return c.prev[kind&3][dom&1]
}

func (c *frontCodec) update(kind EventKind, dom trace.Domain, block uint64) {
	c.prev[kind&3][dom&1] = block
	if kind == Demand {
		c.lastDemand = block
	}
}

// Append encodes one frame at the end of the output.
func (o *FrontOutput) Append(ff *FrontFrame) {
	// The frame's largest encoding — eight header uvarints, and per
	// event a control byte and two 8-byte fields — plus the 8 bytes a
	// field's store or load may touch past the last field. A frame
	// never spills out of the chunk it starts in.
	need := 8*binary.MaxVarintLen64 + len(ff.Events)*17 + 8
	if n := len(o.chunks); n == 0 || cap(o.chunks[n-1])-len(o.chunks[n-1]) < need {
		o.chunks = append(o.chunks, make([]byte, 0, max(frontChunkBytes, need)))
	}
	last := len(o.chunks) - 1
	p := len(o.chunks[last])
	b := o.chunks[last][:p+need]
	for _, v := range [...]uint64{uint64(ff.Records), ff.Busy, ff.BusyByDomain[trace.User], uint64(len(ff.Events)),
		ff.L1Reads[trace.KindData], ff.L1Writes[trace.KindData], ff.L1Reads[trace.KindIfetch], ff.L1Writes[trace.KindIfetch]} {
		p += binary.PutUvarint(b[p:], v)
	}
	for i := range ff.Events {
		e := &ff.Events[i]
		block := e.Addr >> o.shift
		d := int64(block - o.enc.predict(e.Kind, e.Dom))
		zz := uint64(d<<1) ^ uint64(d>>63)
		o.enc.update(e.Kind, e.Dom, block)
		bc := busyCode[(bits.Len64(e.Busy)+7)>>3]
		ac := addrCode[(bits.Len64(zz)+7)>>3]
		b[p] = byte(e.Kind) | byte(e.Dom&1)<<2 | ac<<3 | bc<<5
		p++
		binary.LittleEndian.PutUint64(b[p:], e.Busy)
		p += busyWidth[bc]
		binary.LittleEndian.PutUint64(b[p:], zz)
		p += addrWidth[ac]
	}
	o.chunks[last] = b[:p]
}

// FrontReader reads a FrontOutput's frames back in order. Any number
// of readers may read one finished output concurrently.
type FrontReader struct {
	o          *FrontOutput
	chunk, pos int
	dec        frontCodec
}

// Reader returns a reader positioned at the output's first frame.
func (o *FrontOutput) Reader() *FrontReader { return &FrontReader{o: o} }

// Next decodes the next frame into ff, reusing its event buffer, and
// reports false at the end of the output.
func (r *FrontReader) Next(ff *FrontFrame) bool {
	chunks := r.o.chunks
	if r.chunk < len(chunks) && r.pos == len(chunks[r.chunk]) {
		r.chunk, r.pos = r.chunk+1, 0
	}
	if r.chunk >= len(chunks) {
		return false
	}
	// Field loads read 8 bytes at a time; Append left that much room
	// past the chunk's last field.
	b := chunks[r.chunk][:cap(chunks[r.chunk])]
	pos := r.pos
	var hdr [8]uint64
	for i := range hdr {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			panic(fmt.Sprintf("mem: front output corrupt at chunk %d byte %d", r.chunk, pos))
		}
		hdr[i], pos = v, pos+n
	}
	ff.Records = int(hdr[0])
	ff.Busy = hdr[1]
	ff.BusyByDomain[trace.User] = hdr[2]
	ff.BusyByDomain[trace.Kernel] = hdr[1] - hdr[2]
	n := int(hdr[3])
	ff.L1Reads[trace.KindData], ff.L1Writes[trace.KindData] = hdr[4], hdr[5]
	ff.L1Reads[trace.KindIfetch], ff.L1Writes[trace.KindIfetch] = hdr[6], hdr[7]
	if cap(ff.Events) < n {
		ff.Events = make([]Event, n)
	}
	ev := ff.Events[:n]
	for i := range ev {
		h := b[pos]
		bc, ac := h>>5&3, h>>3&3
		pos++
		e := Event{Kind: EventKind(h & 3), Dom: trace.Domain(h >> 2 & 1)}
		e.Busy = binary.LittleEndian.Uint64(b[pos:]) & busyMask[bc]
		pos += busyWidth[bc]
		zz := binary.LittleEndian.Uint64(b[pos:]) & addrMask[ac]
		pos += addrWidth[ac]
		block := r.dec.predict(e.Kind, e.Dom) + uint64(int64(zz>>1)^-int64(zz&1))
		r.dec.update(e.Kind, e.Dom, block)
		e.Addr = block << r.o.shift
		ev[i] = e
	}
	ff.Events = ev
	r.pos = pos
	return true
}
