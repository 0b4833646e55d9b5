package engine

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestCSVHeaderAlwaysWritten: an empty sweep still yields a valid CSV
// with the header row — downstream tooling depends on it.
func TestCSVHeaderAlwaysWritten(t *testing.T) {
	var buf bytes.Buffer
	c := NewCSV(&buf)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(buf.String())
	if got != strings.Join(csvHeader, ",") {
		t.Fatalf("empty-sweep CSV = %q, want the bare header", got)
	}
}

// TestCSVRowShape: every emitted row has exactly the header's column
// count and carries the machine and app identity.
func TestCSVRowShape(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram"}, 2, []uint64{1}, 2000)
	var buf bytes.Buffer
	if _, err := New(Config{}).Execute(context.Background(), p, ExecOptions{}, NewCSV(&buf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(p.Cells) {
		t.Fatalf("CSV has %d lines, want header + %d rows", len(lines), len(p.Cells))
	}
	for i, line := range lines {
		if got := len(strings.Split(line, ",")); got != len(csvHeader) {
			t.Fatalf("line %d has %d columns, want %d", i, got, len(csvHeader))
		}
	}
	for i, c := range p.Cells {
		row := lines[i+1]
		if !strings.HasPrefix(row, c.Machine+","+c.App+",") {
			t.Fatalf("row %d = %q, want prefix %q", i, row, c.Machine+","+c.App)
		}
	}
}

// TestCollector: reports are indexed both by [machine][app] and as an
// ordered slice carrying provenance flags.
func TestCollector(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram", "sp-mr"}, 2, []uint64{1}, 2000)
	eng := New(Config{})
	col := NewCollector()
	if _, err := eng.Execute(context.Background(), p, ExecOptions{}, col); err != nil {
		t.Fatal(err)
	}
	if len(col.Results) != len(p.Cells) {
		t.Fatalf("collector holds %d results, want %d", len(col.Results), len(p.Cells))
	}
	for i, r := range col.Results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d — emission is not plan-ordered", i, r.Index)
		}
		if r.Memoized {
			t.Fatalf("first run of cell %d claims a memo hit", i)
		}
	}
	for _, c := range p.Cells {
		rep, ok := col.ByMachine[c.Machine][c.App]
		if !ok {
			t.Fatalf("no report for %s/%s", c.Machine, c.App)
		}
		if rep.Machine != c.Config.Name {
			t.Fatalf("report machine %q under key %q", rep.Machine, c.Machine)
		}
	}

	// A second execute marks every result memoized.
	col2 := NewCollector()
	if _, err := eng.Execute(context.Background(), p, ExecOptions{}, col2); err != nil {
		t.Fatal(err)
	}
	for i, r := range col2.Results {
		if !r.Memoized {
			t.Fatalf("repeat run of cell %d not marked memoized", i)
		}
	}
}

// TestMultipleSinks: one execute can feed several sinks; they see the
// same results.
func TestMultipleSinks(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram"}, 1, []uint64{1, 2}, 2000)
	var buf bytes.Buffer
	col := NewCollector()
	if _, err := New(Config{}).Execute(context.Background(), p, ExecOptions{}, NewCSV(&buf), col); err != nil {
		t.Fatal(err)
	}
	if len(col.Results) != 2 {
		t.Fatalf("collector saw %d results, want 2", len(col.Results))
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("CSV has %d lines, want 3 (header + 2 rows)", got)
	}
}
