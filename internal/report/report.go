// Package report renders experiment results as aligned ASCII,
// Markdown and CSV tables and as SVG charts — the equivalents of the
// paper's tables and figures that cmd/mcbench prints.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of string cells.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; short rows are padded, long rows truncated to
// the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Fprint writes the table as aligned ASCII.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	seps := make([]string, len(t.Columns))
	for i, wd := range widths {
		seps[i] = strings.Repeat("-", wd)
	}
	if err := line(seps); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders the table via Fprint.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Fprint(&b)
	return b.String()
}

// WriteMarkdown writes the table as a GitHub-flavoured markdown table,
// with the title as a bold caption line.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "**%s**\n\n", t.Title); err != nil {
			return err
		}
	}
	row := func(cells []string) error {
		escaped := make([]string, len(cells))
		for i, c := range cells {
			escaped[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(escaped, " | "))
		return err
	}
	if err := row(t.Columns); err != nil {
		return err
	}
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	if err := row(seps); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := row(r); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the table (headers + rows) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Pct formats a fraction as a percentage.
func Pct(frac float64) string { return fmt.Sprintf("%.1f%%", frac*100) }

// Joules formats an energy with an SI prefix.
func Joules(j float64) string {
	switch {
	case j >= 1:
		return fmt.Sprintf("%.3f J", j)
	case j >= 1e-3:
		return fmt.Sprintf("%.3f mJ", j*1e3)
	case j >= 1e-6:
		return fmt.Sprintf("%.3f uJ", j*1e6)
	case j > 0:
		return fmt.Sprintf("%.3f nJ", j*1e9)
	default:
		return "0 J"
	}
}

// Bytes formats a capacity in binary units.
func Bytes(b uint64) string {
	switch {
	case b >= 1024*1024 && b%(1024*1024) == 0:
		return fmt.Sprintf("%dMB", b/(1024*1024))
	case b >= 1024:
		return fmt.Sprintf("%dKB", b/1024)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
