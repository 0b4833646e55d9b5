package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "app", "miss", "energy")
	tb.AddRow("browser", "0.12", "1.2 mJ")
	tb.AddRow("email", "0.08")
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "browser") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	// Header columns aligned: 'miss' starts at the same offset in
	// header and rows.
	hIdx := strings.Index(lines[1], "miss")
	rIdx := strings.Index(lines[3], "0.12")
	if hIdx != rIdx {
		t.Fatalf("columns misaligned: header@%d row@%d\n%s", hIdx, rIdx, out)
	}
	// Short row padded without panic.
	if !strings.Contains(lines[4], "email") {
		t.Fatal("short row missing")
	}
}

func TestTableRowCopy(t *testing.T) {
	tb := NewTable("t", "a")
	cells := []string{"x"}
	tb.AddRow(cells...)
	cells[0] = "mutated"
	if out := tb.String(); !strings.Contains(out, "x") || strings.Contains(out, "mutated") {
		t.Fatalf("AddRow kept a live reference to the caller's cells:\n%s", out)
	}
}

func TestTableLongRowTruncated(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "2", "3", "4")
	if got := tb.rows[0]; len(got) != 2 {
		t.Fatalf("row has %d cells, want 2", len(got))
	}
}

func TestWriteCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "has,comma")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"has,comma\"\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestWriteMarkdown(t *testing.T) {
	tb := NewTable("Caption", "a", "b")
	tb.AddRow("1", "x|y")
	var buf bytes.Buffer
	if err := tb.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "**Caption**") {
		t.Fatalf("caption missing:\n%s", out)
	}
	if !strings.Contains(out, "| a | b |") || !strings.Contains(out, "| --- | --- |") {
		t.Fatalf("header/separator wrong:\n%s", out)
	}
	if !strings.Contains(out, `x\|y`) {
		t.Fatalf("pipe not escaped:\n%s", out)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > 4 {
		return 0, errFail
	}
	return len(p), nil
}

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "synthetic write failure" }

func TestWritersPropagateErrors(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "2")
	if err := tb.Fprint(&failWriter{}); err == nil {
		t.Error("Fprint swallowed a write error")
	}
	if err := tb.WriteMarkdown(&failWriter{}); err == nil {
		t.Error("WriteMarkdown swallowed a write error")
	}
	if err := tb.WriteCSV(&failWriter{}); err == nil {
		t.Error("WriteCSV swallowed a write error")
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.756); got != "75.6%" {
		t.Fatalf("Pct = %q", got)
	}
}

func TestJoules(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{2.5, "2.500 J"},
		{3.2e-3, "3.200 mJ"},
		{4.5e-6, "4.500 uJ"},
		{6e-9, "6.000 nJ"},
		{0, "0 J"},
	}
	for _, tc := range cases {
		if got := Joules(tc.in); got != tc.want {
			t.Errorf("Joules(%g) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBytes(t *testing.T) {
	cases := []struct {
		in   uint64
		want string
	}{
		{512, "512B"},
		{768 * 1024, "768KB"},
		{1024 * 1024, "1MB"},
		{3 * 1024 * 1024, "3MB"},
	}
	for _, tc := range cases {
		if got := Bytes(tc.in); got != tc.want {
			t.Errorf("Bytes(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
