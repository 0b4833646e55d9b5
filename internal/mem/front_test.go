package mem

import (
	"math/bits"
	"testing"

	"mobilecache/internal/trace"
)

// fuzzBytes hands out a fuzz input's bytes in order, cycling through
// it so a short input fills many frames; an empty input reads as
// zeros.
type fuzzBytes struct {
	data []byte
	i    int
}

func (b *fuzzBytes) byte() byte {
	if len(b.data) == 0 {
		return 0
	}
	c := b.data[b.i%len(b.data)]
	b.i++
	return c
}

// uint reads a width byte, then a big-endian value of that many bytes
// (the width taken mod 9): every width class from 0 to 64 bits.
func (b *fuzzBytes) uint() uint64 {
	var v uint64
	for n := b.byte() % 9; n > 0; n-- {
		v = v<<8 | uint64(b.byte())
	}
	return v
}

// fuzzMaxEvents bounds the events of one fuzz input.
const fuzzMaxEvents = 1 << 16

// fuzzFrames builds n frames from data for an output of blocks 1<<shift
// bytes long. A frame is a count byte — bit 7 asks for a frame larger
// than a whole chunk, bits 0-5 for up to 63 events otherwise — then the
// header's uints (records, the two domains' busy cycles, whose sum is
// the frame's, and the four meter counts), then its events. An event is
// a control byte (kind in bits 0-1, taken mod 3, domain in bit 2, and
// in bit 3 the sign of its step), a uint step from the last block of
// its kind and domain, wrapping within the address space, and uint busy
// cycles.
func fuzzFrames(n int, data []byte, shift uint) []FrontFrame {
	src := fuzzBytes{data: data}
	topBlock := ^uint64(0) >> shift
	var last [3][trace.NumDomains]uint64
	frames := make([]FrontFrame, n)
	total := 0
	for k := range frames {
		ff := &frames[k]
		c := src.byte()
		events := int(c & 0x3f)
		if c&0x80 != 0 {
			events += frontChunkBytes / 16
		}
		events = min(events, fuzzMaxEvents-total)
		total += events
		ff.Records = int(src.uint() >> 1)
		ff.BusyByDomain = [trace.NumDomains]uint64{src.uint(), src.uint()}
		ff.Busy = ff.BusyByDomain[trace.User] + ff.BusyByDomain[trace.Kernel]
		ff.L1Reads = [2]uint64{src.uint(), src.uint()}
		ff.L1Writes = [2]uint64{src.uint(), src.uint()}
		ff.Events = make([]Event, events)
		for i := range ff.Events {
			c := src.byte()
			kind, dom := EventKind(c&3%3), trace.Domain(c>>2&1)
			blk := &last[kind][dom]
			if step := src.uint(); c&8 != 0 {
				*blk -= step
			} else {
				*blk += step
			}
			*blk &= topBlock
			ff.Events[i] = Event{Busy: src.uint(), Addr: *blk << shift, Dom: dom, Kind: kind}
		}
	}
	return frames
}

// ones is a uint of w all-ones bytes in fuzzFrames' form.
func ones(w int) []byte {
	b := []byte{byte(w)}
	for range w {
		b = append(b, 0xff)
	}
	return b
}

// FuzzFrontOutputRoundTrip appends frames built from the fuzz input
// (see fuzzFrames) to a FrontOutput and requires its Reader to return
// each unchanged, then to report the end. The seeds cover an output
// with no frames, frames with no events, every event kind in both
// domains with busy cycles and block steps of every width up to 64
// bits, the top block of the address space, and outputs spanning many
// 32 KB chunks, of small frames and of frames larger than a chunk.
func FuzzFrontOutputRoundTrip(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(3), []byte{})
	// Two frames of 55 events: the top block (one step down from 0),
	// then each kind and domain with a step and busy cycles of every
	// width, up in the first frame and down in the second.
	var every []byte
	for sign := byte(0); sign <= 8; sign += 8 {
		every = append(every, 55)
		for w := range 7 {
			every = append(every, ones(w+2)...)
		}
		every = append(every, 8, 1, 1, 0)
		for w := range 9 {
			for kd := byte(0); kd < 6; kd++ {
				every = append(every, kd%3|kd/3<<2|sign)
				every = append(every, ones(w)...)
				every = append(every, ones(w)...)
			}
		}
	}
	f.Add(uint16(2), every)
	f.Add(uint16(1000), []byte{0x3f, 1, 0x5a, 0x0d, 2, 0x81, 0x7e, 3, 0x01, 0x02, 0x03})
	f.Add(uint16(3), []byte{0x80})
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		front, err := NewFront(testL1I(), testL1D())
		if err != nil {
			t.Fatal(err)
		}
		out := NewFrontOutput(front)
		in := fuzzFrames(int(n%1024), data, uint(bits.TrailingZeros(uint(testL1I().BlockBytes))))
		for i := range in {
			out.Append(&in[i])
		}
		r := out.Reader()
		var got FrontFrame
		for i := range in {
			if !r.Next(&got) {
				t.Fatalf("the reader ended after %d of %d frames", i, len(in))
			}
			if msg := diffFrames(&got, &in[i]); msg != "" {
				t.Fatalf("frame %d of %d: %s", i, len(in), msg)
			}
		}
		if r.Next(&got) {
			t.Fatalf("the reader returned a frame past the %d appended", len(in))
		}
	})
}
