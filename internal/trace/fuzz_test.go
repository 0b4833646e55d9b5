package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseTextLine checks the text parser never panics and that any
// line it accepts re-serializes to an equivalent record.
func FuzzParseTextLine(f *testing.F) {
	f.Add("user load 0x10 0x20 3")
	f.Add("kernel store 0xffff800000001040 0xffff800000400abc 12")
	f.Add("user ifetch 0x0 0x0 0")
	f.Add("")
	f.Add("user load 0x10")
	f.Add("daemon jump zz zz -1")
	f.Fuzz(func(t *testing.T, line string) {
		a, err := parseTextLine(line)
		if err != nil {
			return
		}
		// Accepted records are valid and round-trip.
		if verr := a.Validate(); verr != nil {
			t.Fatalf("parsed invalid record from %q: %v", line, verr)
		}
		var buf bytes.Buffer
		if _, werr := WriteText(&buf, NewSliceSource([]Access{a})); werr != nil {
			t.Fatalf("re-serialize failed: %v", werr)
		}
		b, err2 := parseTextLine(strings.TrimSpace(buf.String()))
		if err2 != nil {
			t.Fatalf("round trip failed for %q: %v", line, err2)
		}
		if a != b {
			t.Fatalf("round trip mismatch: %+v vs %+v", a, b)
		}
	})
}

// FuzzBinaryReader checks the binary decoder never panics on arbitrary
// input and never yields invalid records.
func FuzzBinaryReader(f *testing.F) {
	// Seed with a valid trace, a truncated one, and garbage.
	var valid bytes.Buffer
	w := NewWriter(&valid)
	_ = w.Write(Access{Addr: 0x40, PC: 0x80, Gap: 1, Op: Store, Domain: Kernel})
	_ = w.Flush()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-3])
	f.Add([]byte("MCTR\x01\x00\x00\x00garbage"))
	f.Add([]byte("NOPE"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		count := 0
		for {
			a, ok := r.Next()
			if !ok {
				break
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("decoder yielded invalid record: %v", err)
			}
			count++
			if count > 1<<20 {
				t.Fatal("decoder yielded implausibly many records")
			}
		}
	})
}

// fuzzRecords turns arbitrary bytes into records. Each record takes a
// header byte and then its fields' raw bytes: the header picks the op,
// the domain and the byte widths of the address and PC deltas (1, 2, 4
// or 8 bytes, sign-extended, so deltas reach every width class in both
// directions) and of the gap (1, 2 or 4 bytes, up to MaxUint32).
// Missing trailing bytes read as zero.
func fuzzRecords(data []byte) []Access {
	take := func(n int) uint64 {
		var b [8]byte
		k := copy(b[:n], data)
		data = data[k:]
		return binary.LittleEndian.Uint64(b[:])
	}
	signed := func(class byte) uint64 {
		n := 1 << class
		v := take(n)
		shift := 64 - 8*n
		return uint64(int64(v<<shift) >> shift)
	}
	var recs []Access
	var addr, pc uint64
	for len(data) > 0 && len(recs) < 1024 {
		h := byte(take(1))
		addr += signed(h >> 3 & 3)
		pc += signed(h >> 5 & 3)
		recs = append(recs, Access{
			Addr:   addr,
			PC:     pc,
			Gap:    uint32(take(1 << min(h>>6&3, 2))),
			Op:     Op(h % NumOps),
			Domain: Domain(h >> 2 & 1),
		})
	}
	return recs
}

// FuzzPackedRoundTrip packs fuzzed records with PackSlice and requires
// every reader of the packed form to give them back: Cursor.Next and
// Cursor.Decode the records themselves, and Cursor.DecodeFrame and
// SliceCursor.DecodeFrame (over the original records) the same frames
// under one geometry. The first input bytes pick the geometry and the
// batch size, so frames and batches end at arbitrary records.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 255, 0x00, 0x01, 0x02, 0x7f, 0x80, 0xff})
	f.Add([]byte{9, 3, 0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x5d, 0x01, 0x80, 0x00, 0x40, 0xe2}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		var geom FrameGeom
		batch := 1
		if len(data) >= 2 {
			for k := range geom {
				sets := uint(data[0]>>(4*k)) & 0xf
				geom[k] = SetTagGeom{BlockShift: uint(data[1]>>(4*k)) & 0xf, IndexMask: 1<<sets - 1, TagShift: sets}
			}
			batch = 1 + int(data[1])
			data = data[2:]
		}
		recs := fuzzRecords(data)
		p := PackSlice(recs)
		if p.Len() != len(recs) {
			t.Fatalf("Len = %d, want %d", p.Len(), len(recs))
		}

		cur := p.Cursor()
		for i, want := range recs {
			if got, ok := cur.Next(); !ok || got != want {
				t.Fatalf("Next record %d = %+v (ok=%v), want %+v", i, got, ok, want)
			}
		}
		if _, ok := cur.Next(); ok {
			t.Fatal("Next yields records past the end")
		}

		cur = p.Cursor()
		buf := make([]Access, batch)
		var decoded []Access
		for n := cur.Decode(buf); n > 0; n = cur.Decode(buf) {
			decoded = append(decoded, buf[:n]...)
		}
		if len(decoded) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(decoded, recs)) {
			t.Fatalf("Decode in batches of %d gave %d records, want the %d packed", batch, len(decoded), len(recs))
		}

		want := make([]FramePre, len(recs))
		PrecomputeInto(recs, want, &geom)
		frames := func(src FrameSource) []FramePre {
			frame := make([]FramePre, batch)
			var out []FramePre
			for n := src.DecodeFrame(frame, &geom); n > 0; n = src.DecodeFrame(frame, &geom) {
				out = append(out, frame[:n]...)
			}
			return out
		}
		cur = p.Cursor()
		sc := NewSliceCursor(recs)
		for name, got := range map[string][]FramePre{"Cursor": frames(&cur), "SliceCursor": frames(&sc)} {
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s.DecodeFrame in frames of %d differs from the packed records' frames", name, batch)
			}
		}
	})
}
