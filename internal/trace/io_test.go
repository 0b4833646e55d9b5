package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	recs := sampleTrace()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, a := range recs {
		if err := w.Write(a); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("writer count = %d, want %d", w.Count(), len(recs))
	}

	r := NewReader(&buf)
	got := Collect(r, 0)
	if r.err != nil {
		t.Fatalf("reader error: %v", r.err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Access, int(n))
		for i := range recs {
			recs[i] = Access{
				Addr:   rng.Uint64(),
				PC:     rng.Uint64(),
				Gap:    rng.Uint32(),
				Op:     Op(rng.Intn(int(NumOps))),
				Domain: Domain(rng.Intn(int(NumDomains))),
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, a := range recs {
			if err := w.Write(a); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(&buf)
		got := Collect(r, 0)
		if r.err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatalf("flush empty: %v", err)
	}
	r := NewReader(&buf)
	if got := Collect(r, 0); len(got) != 0 {
		t.Fatalf("empty trace yielded %d records", len(got))
	}
	if r.err != nil {
		t.Fatalf("empty trace error: %v", r.err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("NOPE0000rest-of-stream"))
	if _, ok := r.Next(); ok {
		t.Fatal("reader accepted bad magic")
	}
	if !errors.Is(r.err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", r.err)
	}
}

func TestBinaryBadVersion(t *testing.T) {
	r := NewReader(strings.NewReader("MCTR\x7f\x00\x00\x00"))
	if _, ok := r.Next(); ok {
		t.Fatal("reader accepted bad version")
	}
	if !errors.Is(r.err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", r.err)
	}
}

func TestBinaryTruncatedRecord(t *testing.T) {
	recs := sampleTrace()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, a := range recs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	r := NewReader(bytes.NewReader(trunc))
	got := Collect(r, 0)
	if len(got) != len(recs)-1 {
		t.Fatalf("truncated trace yielded %d records, want %d", len(got), len(recs)-1)
	}
	if r.err == nil {
		t.Fatal("truncated record not reported as an error")
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Access{Op: Op(99)}); err == nil {
		t.Fatal("writer accepted invalid op")
	}
}

func TestTextRoundTrip(t *testing.T) {
	recs := sampleTrace()
	var buf bytes.Buffer
	n, err := WriteText(&buf, NewSliceSource(recs))
	if err != nil {
		t.Fatalf("write text: %v", err)
	}
	if n != uint64(len(recs)) {
		t.Fatalf("wrote %d records, want %d", n, len(recs))
	}
	r := newTextReader(&buf)
	got := Collect(r, 0)
	if r.err != nil {
		t.Fatalf("text reader error: %v", r.err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("text round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestTextReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nuser load 0x10 0x20 3\n   \n# another\nkernel store 0x30 0x40 0\n"
	r := newTextReader(strings.NewReader(in))
	got := Collect(r, 0)
	if r.err != nil {
		t.Fatalf("error: %v", r.err)
	}
	want := []Access{
		{Addr: 0x10, PC: 0x20, Gap: 3, Op: Load, Domain: User},
		{Addr: 0x30, PC: 0x40, Gap: 0, Op: Store, Domain: Kernel},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestParseTextLineErrors(t *testing.T) {
	bad := []string{
		"",
		"user load 0x10 0x20",             // too few fields
		"user load 0x10 0x20 3 extra",     // too many fields
		"daemon load 0x10 0x20 3",         // bad domain
		"user jump 0x10 0x20 3",           // bad op
		"user load zz 0x20 3",             // bad addr
		"user load 0x10 zz 3",             // bad pc
		"user load 0x10 0x20 -1",          // bad gap
		"user load 0x10 0x20 99999999999", // gap overflow
	}
	for _, line := range bad {
		if _, err := parseTextLine(line); err == nil {
			t.Errorf("parseTextLine(%q) succeeded, want error", line)
		}
	}
}

func TestTextReaderReportsLineNumber(t *testing.T) {
	in := "user load 0x10 0x20 3\nbogus line here oops x\n"
	r := newTextReader(strings.NewReader(in))
	got := Collect(r, 0)
	if len(got) != 1 {
		t.Fatalf("records before error = %d, want 1", len(got))
	}
	if r.err == nil || !strings.Contains(r.err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 mention", r.err)
	}
}

// The CLIs read only the binary format; this text reader is the
// oracle the text-format tests hold WriteText to.

// parseTextLine decodes one text-format record line.
func parseTextLine(line string) (Access, error) {
	fields := strings.Fields(line)
	if len(fields) != 5 {
		return Access{}, fmt.Errorf("trace: text record needs 5 fields, got %d in %q", len(fields), line)
	}
	var a Access
	switch fields[0] {
	case "user":
		a.Domain = User
	case "kernel":
		a.Domain = Kernel
	default:
		return Access{}, fmt.Errorf("trace: unknown domain %q", fields[0])
	}
	switch fields[1] {
	case "load":
		a.Op = Load
	case "store":
		a.Op = Store
	case "ifetch":
		a.Op = Ifetch
	default:
		return Access{}, fmt.Errorf("trace: unknown op %q", fields[1])
	}
	addr, err := strconv.ParseUint(strings.TrimPrefix(fields[2], "0x"), 16, 64)
	if err != nil {
		return Access{}, fmt.Errorf("trace: bad address %q: %w", fields[2], err)
	}
	a.Addr = addr
	pc, err := strconv.ParseUint(strings.TrimPrefix(fields[3], "0x"), 16, 64)
	if err != nil {
		return Access{}, fmt.Errorf("trace: bad pc %q: %w", fields[3], err)
	}
	a.PC = pc
	gap, err := strconv.ParseUint(fields[4], 10, 32)
	if err != nil {
		return Access{}, fmt.Errorf("trace: bad gap %q: %w", fields[4], err)
	}
	a.Gap = uint32(gap)
	return a, nil
}

// textReader decodes the text trace format; it implements Source. Its
// err field holds the first decoding error, or nil for a clean EOF.
type textReader struct {
	sc   *bufio.Scanner
	err  error
	line int
	done bool
}

// newTextReader prepares to decode text-format records from r.
func newTextReader(r io.Reader) *textReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return &textReader{sc: sc}
}

// Next decodes the next record, skipping comments and blank lines.
func (tr *textReader) Next() (Access, bool) {
	if tr.done {
		return Access{}, false
	}
	for tr.sc.Scan() {
		tr.line++
		line := strings.TrimSpace(tr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, err := parseTextLine(line)
		if err != nil {
			tr.err = fmt.Errorf("line %d: %w", tr.line, err)
			tr.done = true
			return Access{}, false
		}
		return a, true
	}
	tr.done = true
	tr.err = tr.sc.Err()
	return Access{}, false
}
