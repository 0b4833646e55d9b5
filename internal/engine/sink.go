package engine

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"mobilecache/internal/checkpoint"
	"mobilecache/internal/faultfs"
	"mobilecache/internal/sim"
)

// Result is one successful cell as delivered to sinks.
type Result struct {
	// Index is the cell's position in plan order.
	Index int
	Cell  Cell
	// Key is the cell's content-hash identity (the checkpoint/memo key).
	Key checkpoint.Key
	// Report is the simulation outcome.
	Report sim.RunReport
	// Resumed marks a result replayed from a checkpoint journal;
	// Memoized one served from the engine's run memo.
	Resumed  bool
	Memoized bool
}

// Sink consumes an execution's successful results. Emit is called once
// per result, in plan order; Flush once after the last Emit, even when
// the plan aborted early (sinks then hold the healthy prefix).
// Emissions happen on the Execute goroutine, so sinks need no locking.
type Sink interface {
	Emit(Result) error
	Flush() error
}

// Collector is the in-memory sink the experiments package uses: it
// indexes reports by machine label and app, and keeps the ordered
// result list for callers that need plan order.
type Collector struct {
	// ByMachine maps machine label -> app label -> report.
	ByMachine map[string]map[string]sim.RunReport
	// Results holds every emitted result in plan order.
	Results []Result
}

// NewCollector builds an empty collector.
func NewCollector() *Collector {
	return &Collector{ByMachine: map[string]map[string]sim.RunReport{}}
}

// Emit implements Sink.
func (c *Collector) Emit(r Result) error {
	byApp := c.ByMachine[r.Cell.Machine]
	if byApp == nil {
		byApp = map[string]sim.RunReport{}
		c.ByMachine[r.Cell.Machine] = byApp
	}
	byApp[r.Cell.App] = r.Report
	c.Results = append(c.Results, r)
	return nil
}

// Flush implements Sink.
func (c *Collector) Flush() error { return nil }

// csvHeader is the sweep CSV schema (one row per successful cell).
var csvHeader = []string{
	"machine", "app", "seed", "accesses",
	"ipc", "l2_missrate", "l2_kernel_share",
	"l2_read_j", "l2_write_j", "l2_leakage_j", "l2_refresh_j", "l2_total_j",
	"dram_reads", "dram_writes", "hierarchy_total_j",
	"l2_powered_bytes",
}

// CSV is the sweep-results sink behind cmd/mcsweep: a header plus one
// row per successful cell, in plan order, so identical plans produce
// byte-identical files regardless of worker count. The machine column
// carries the resolved config's name (not the plan label), matching
// what every sweep CSV has always shown.
type CSV struct {
	w      *csv.Writer
	header bool
}

// NewCSV builds a CSV sink writing to w.
func NewCSV(w io.Writer) *CSV { return &CSV{w: csv.NewWriter(w)} }

// writeHeader emits the header once.
func (s *CSV) writeHeader() error {
	if s.header {
		return nil
	}
	s.header = true
	return s.w.Write(csvHeader)
}

// Emit implements Sink.
func (s *CSV) Emit(r Result) error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	return s.w.Write(csvRow(r.Cell.Config.Name, r.Cell.App, r.Cell.Seed, r.Report))
}

// Flush implements Sink: the header is written even for a plan with no
// successful cells, so an empty sweep still leaves a parseable file.
func (s *CSV) Flush() error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	s.w.Flush()
	return s.w.Error()
}

// csvRow renders one successful cell's CSV record.
func csvRow(machine, app string, seed uint64, rep sim.RunReport) []string {
	bd := rep.Energy.L2
	return []string{
		machine, app, strconv.FormatUint(seed, 10),
		strconv.FormatUint(rep.CPU.Accesses, 10),
		fmt.Sprintf("%.6f", rep.IPC()),
		fmt.Sprintf("%.6f", rep.L2.MissRate()),
		fmt.Sprintf("%.6f", rep.L2.KernelShare()),
		fmt.Sprintf("%.6g", bd.ReadJ),
		fmt.Sprintf("%.6g", bd.WriteJ),
		fmt.Sprintf("%.6g", bd.LeakageJ),
		fmt.Sprintf("%.6g", bd.RefreshJ),
		fmt.Sprintf("%.6g", bd.Total()),
		strconv.FormatUint(rep.DRAMReads, 10),
		strconv.FormatUint(rep.DRAMWrites, 10),
		fmt.Sprintf("%.6g", rep.Energy.TotalJ()),
		strconv.FormatUint(rep.L2PoweredBytes, 10),
	}
}

// CSVFile is the durable variant of CSV: rows accumulate in memory and
// Flush lands the complete file atomically (write temp, fsync, rename,
// fsync parent dir) via faultfs.WriteFileAtomic. The output path
// therefore never holds a half-written CSV — a reader sees either the
// previous file or the complete new one, even across a crash — and a
// disk-full or I/O error surfaces from Flush instead of leaving a
// truncated file behind. Front ends that write result CSVs (mcsweep -o,
// the daemon's result.csv) use this instead of an os.Create stream.
type CSVFile struct {
	fsys faultfs.FS
	path string
	buf  bytes.Buffer
	csv  *CSV
}

// NewCSVFile builds an atomic CSV sink targeting path.
func NewCSVFile(path string) *CSVFile { return NewCSVFileFS(faultfs.OS, path) }

// NewCSVFileFS is NewCSVFile over an injectable filesystem.
func NewCSVFileFS(fsys faultfs.FS, path string) *CSVFile {
	c := &CSVFile{fsys: fsys, path: path}
	c.csv = NewCSV(&c.buf)
	return c
}

// Emit implements Sink.
func (c *CSVFile) Emit(r Result) error { return c.csv.Emit(r) }

// Flush implements Sink: the buffered rows (header included, even for
// an empty plan) become the file in one atomic, durable swap.
func (c *CSVFile) Flush() error {
	if err := c.csv.Flush(); err != nil {
		return err
	}
	return faultfs.WriteFileAtomic(c.fsys, c.path, func(w io.Writer) error {
		_, err := w.Write(c.buf.Bytes())
		return err
	})
}
