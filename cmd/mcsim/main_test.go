package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

func TestRunStandardMachineApp(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-machine", "sp-mr", "-app", "music", "-accesses", "20000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"music on sp-mr", "L2 miss rate", "L2 energy: total", "IPC"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunDynamicPrintsHistory(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-machine", "dp", "-app", "email", "-accesses", "60000"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dynamic partition:") {
		t.Fatalf("dynamic run did not print partition summary:\n%s", out.String())
	}
}

func TestRunDumpConfig(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-machine", "dp-sr", "-dump-config"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"scheme": "dynamic"`) {
		t.Fatalf("dump-config output wrong:\n%s", out.String())
	}
}

func TestRunConfigFileRoundTrip(t *testing.T) {
	// Dump a config, reload it via -config, and run with it.
	var dumped bytes.Buffer
	if err := run([]string{"-machine", "sp", "-dump-config"}, &dumped); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "machine.json")
	if err := os.WriteFile(path, dumped.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-config", path, "-app", "game", "-accesses", "10000"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "game on sp") {
		t.Fatalf("config-file run wrong:\n%s", out.String())
	}
}

func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.mctr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for i := 0; i < 500; i++ {
		if err := w.Write(trace.Access{Addr: uint64(i) * 64, Op: trace.Load, Domain: trace.User}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-accesses", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "accesses") || !strings.Contains(out.String(), "500") {
		t.Fatalf("trace replay output wrong:\n%s", out.String())
	}
}

// TestRunBadTraceFails: a trace the reader cannot decode fails the
// replay with the path in the error and prints no report. The two
// cases are a binary trace cut mid-record and a text-format trace
// (mctrace gen -text), which has no binary header.
func TestRunBadTraceFails(t *testing.T) {
	prof, err := workload.ProfileByName("browser")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.Generate(prof, 1, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// The first 60 000 bytes of a 20 000-record trace: the header,
	// 2 726 whole records and a torn one.
	var bin bytes.Buffer
	w := trace.NewWriter(&bin)
	for _, a := range recs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.mctr")
	if err := os.WriteFile(truncated, bin.Bytes()[:60_000], 0o644); err != nil {
		t.Fatal(err)
	}

	var txt bytes.Buffer
	if _, err := trace.WriteText(&txt, trace.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	text := filepath.Join(dir, "text.mctr")
	if err := os.WriteFile(text, txt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path string
		want error
	}{
		{truncated, io.ErrUnexpectedEOF},
		{text, trace.ErrBadMagic},
	} {
		var out bytes.Buffer
		err := run([]string{"-trace", tc.path}, &out)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.path) {
			t.Errorf("-trace %s: err = %v, want %v naming the path", tc.path, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("-trace %s printed a report:\n%s", tc.path, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-machine", "nonexistent"},
		{"-app", "nonexistent"},
		{"-config", "/does/not/exist.json"},
		{"-trace", "/does/not/exist.mctr"},
		{"-app", "browser", "-accesses", "0"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunRejectsRetiredSegmentFlag: the retired segmented-replay flag is
// undefined, so an old script fails loudly instead of running serial.
func TestRunRejectsRetiredSegmentFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-segment-workers", "2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "not defined: -segment-workers") {
		t.Fatalf("run(-segment-workers 2) = %v, want an undefined-flag error", err)
	}
}

// TestRunSampleFlag: -sample runs the simulation set-sampled and the
// report says so; malformed specs are rejected before anything runs.
func TestRunSampleFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-machine", "sp-mr", "-app", "music", "-accesses", "40000", "-sample", "1/8"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"sampling", "1/8 of set groups", "L2 energy: total"} {
		if !strings.Contains(s, want) {
			t.Errorf("sampled output missing %q:\n%s", want, s)
		}
	}

	for _, bad := range []string{"0", "1/0", "3", "1/3", "256", "hash:", "nonsense"} {
		out.Reset()
		err := run([]string{"-machine", "sp", "-app", "browser", "-accesses", "1000", "-sample", bad}, &out)
		if err == nil || !strings.Contains(err.Error(), "-sample") {
			t.Errorf("-sample %q returned %v, want a -sample error", bad, err)
		}
	}
}

// TestRunSampleTraceReplay: -sample also covers the trace-file replay
// path and the sampled report still carries the factor row.
func TestRunSampleTraceReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.mctr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for i := 0; i < 4000; i++ {
		if err := w.Write(trace.Access{Addr: uint64(i) * 64, Op: trace.Load, Domain: trace.User, Gap: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-accesses", "0", "-sample", "1/8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1/8 of set groups") {
		t.Fatalf("sampled trace replay missing sampling row:\n%s", out.String())
	}
}

// TestRunAuditFlag: -audit gates every mcsim path the way it does for
// mcbench/mcsweep — bad modes are rejected up front, strict mode turns
// a miscounted report into a failure, and off mode lets it through.
func TestRunAuditFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-audit", "loud"}, &out); err == nil || !strings.Contains(err.Error(), "-audit") {
		t.Fatalf("bad audit mode returned %v, want an -audit error", err)
	}

	restoreTamper := sim.SetAuditTamper(func(r *sim.RunReport) { r.DRAMReads++ })
	defer restoreTamper()

	args := []string{"-machine", "baseline-sram", "-app", "browser", "-accesses", "10000"}
	out.Reset()
	if err := run(append(args, "-audit", "strict"), &out); err == nil {
		t.Fatal("strict audit let a tampered generated-app report pass")
	}
	out.Reset()
	if err := run(append(args, "-audit", "off"), &out); err != nil {
		t.Fatalf("off audit rejected the run: %v", err)
	}
}

// TestRunAuditFlagTraceReplay: strict audit also covers the raw
// trace-file replay path (which bypasses the engine).
func TestRunAuditFlagTraceReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.mctr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for i := 0; i < 300; i++ {
		if err := w.Write(trace.Access{Addr: uint64(i) * 64, Op: trace.Load, Domain: trace.User}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	restoreTamper := sim.SetAuditTamper(func(r *sim.RunReport) { r.DRAMReads++ })
	defer restoreTamper()

	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-accesses", "0", "-audit", "strict"}, &out); err == nil {
		t.Fatal("strict audit let a tampered trace-replay report pass")
	}
	out.Reset()
	if err := run([]string{"-trace", path, "-accesses", "0", "-audit", "off"}, &out); err != nil {
		t.Fatalf("off audit rejected the replay: %v", err)
	}
}
