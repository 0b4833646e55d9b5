package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format:
//
//	header:  magic "MCTR" | version u8 | reserved [3]byte
//	record:  addr u64 | pc u64 | gap u32 | op u8 | domain u8 (little endian)
//
// The format is deliberately flat — fixed 22-byte records after a
// 8-byte header — so traces can be produced and consumed by other
// tools with no framing logic.

const (
	binaryMagic   = "MCTR"
	binaryVersion = 1
	recordSize    = 22
)

// ErrBadMagic reports a stream that is not a mobilecache binary trace.
var ErrBadMagic = errors.New("trace: bad magic (not a mobilecache trace)")

// ErrBadVersion reports an unsupported trace format version.
var ErrBadVersion = errors.New("trace: unsupported format version")

// Writer encodes Access records to the binary trace format.
type Writer struct {
	w     *bufio.Writer
	n     uint64
	wrote bool
}

// NewWriter starts a binary trace on w. The header is written lazily
// on the first record (or Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (tw *Writer) writeHeader() error {
	if tw.wrote {
		return nil
	}
	tw.wrote = true
	if _, err := tw.w.WriteString(binaryMagic); err != nil {
		return err
	}
	_, err := tw.w.Write([]byte{binaryVersion, 0, 0, 0})
	return err
}

// Write appends one record.
func (tw *Writer) Write(a Access) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if err := tw.writeHeader(); err != nil {
		return err
	}
	var buf [recordSize]byte
	binary.LittleEndian.PutUint64(buf[0:], a.Addr)
	binary.LittleEndian.PutUint64(buf[8:], a.PC)
	binary.LittleEndian.PutUint32(buf[16:], a.Gap)
	buf[20] = byte(a.Op)
	buf[21] = byte(a.Domain)
	if _, err := tw.w.Write(buf[:]); err != nil {
		return err
	}
	tw.n++
	return nil
}

// Count reports how many records have been written.
func (tw *Writer) Count() uint64 { return tw.n }

// Flush writes any buffered data (and the header, for empty traces).
func (tw *Writer) Flush() error {
	if err := tw.writeHeader(); err != nil {
		return err
	}
	return tw.w.Flush()
}

// Reader decodes a binary trace. It implements Source; decoding errors
// terminate the stream and are retrievable via Err.
type Reader struct {
	r      *bufio.Reader
	read   bool
	err    error
	closed bool
}

// NewReader prepares to decode a binary trace from r. The header is
// validated on the first Next call.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

func (tr *Reader) readHeader() error {
	if tr.read {
		return nil
	}
	tr.read = true
	var hdr [8]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:4]) != binaryMagic {
		return ErrBadMagic
	}
	if hdr[4] != binaryVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, hdr[4])
	}
	return nil
}

// Next decodes the next record. It returns ok=false at end of stream or
// on error; check Err to distinguish.
func (tr *Reader) Next() (Access, bool) {
	if tr.closed {
		return Access{}, false
	}
	if err := tr.readHeader(); err != nil {
		tr.fail(err)
		return Access{}, false
	}
	var buf [recordSize]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		if err != io.EOF {
			tr.fail(fmt.Errorf("trace: reading record: %w", err))
		} else {
			tr.closed = true
		}
		return Access{}, false
	}
	a := Access{
		Addr:   binary.LittleEndian.Uint64(buf[0:]),
		PC:     binary.LittleEndian.Uint64(buf[8:]),
		Gap:    binary.LittleEndian.Uint32(buf[16:]),
		Op:     Op(buf[20]),
		Domain: Domain(buf[21]),
	}
	if err := a.Validate(); err != nil {
		tr.fail(err)
		return Access{}, false
	}
	return a, true
}

func (tr *Reader) fail(err error) {
	if tr.err == nil {
		tr.err = err
	}
	tr.closed = true
}

// Err reports the first decoding error, or nil for clean EOF.
func (tr *Reader) Err() error { return tr.err }

// Text trace format: one record per line,
//
//	<domain> <op> <addr-hex> <pc-hex> <gap>
//
// e.g. "kernel store 0xffff800000001040 0xffff800000400abc 12".
// Lines starting with '#' and blank lines are ignored.

// WriteText emits src as the human-readable text format.
func WriteText(w io.Writer, src Source) (n uint64, err error) {
	bw := bufio.NewWriter(w)
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		if err := a.Validate(); err != nil {
			return n, err
		}
		if _, err := fmt.Fprintf(bw, "%s %s 0x%x 0x%x %d\n", a.Domain, a.Op, a.Addr, a.PC, a.Gap); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}
