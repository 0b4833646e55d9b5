package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, id := range []string{"E1", "E7", "E12", "T1", "T2"} {
		if !strings.Contains(s, id) {
			t.Errorf("list missing %s:\n%s", id, s)
		}
	}
}

// TestRunRejectsRetiredSegmentFlag: the retired segmented-replay flag is
// undefined, so an old script fails loudly instead of running serial.
func TestRunRejectsRetiredSegmentFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-segment-workers", "2", "-list"}, &out)
	if err == nil || !strings.Contains(err.Error(), "not defined: -segment-workers") {
		t.Fatalf("run(-segment-workers 2) = %v, want an undefined-flag error", err)
	}
}

func TestSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-experiment", "E5", "-accesses", "5000", "-apps", "browser"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "E5:") || !strings.Contains(s, "stt-short") {
		t.Fatalf("E5 output wrong:\n%s", s)
	}
	if !strings.Contains(s, "finding:") {
		t.Fatalf("E5 output missing findings:\n%s", s)
	}
}

func TestAppSubset(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-experiment", "E1", "-accesses", "20000", "-apps", "music, video"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "music") || !strings.Contains(s, "video") {
		t.Fatalf("subset output wrong:\n%s", s)
	}
	if strings.Contains(s, "browser") {
		t.Fatalf("subset ran apps it should not have:\n%s", s)
	}
}

func TestCSVDump(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-experiment", "T1", "-accesses", "1000", "-apps", "game", "-csv", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "T1_*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no CSVs written: %v %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), ",") {
		t.Fatal("CSV content wrong")
	}
}

func TestMarkdownDump(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-experiment", "T1", "-accesses", "1000", "-apps", "game", "-md", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "T1_*.md"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no markdown written: %v %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "| --- |") {
		t.Fatal("markdown content wrong")
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-experiment", "E99"},
		{"-apps", "nonexistent"},
		{"-experiment", "E5", "-accesses", "0"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// -sample runs experiments sampled; -sample-validate runs the
// sampled-vs-exact grid and reports PASS with a speedup line. Both are
// part of PR 5's sampling surface.
func TestSampleFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-experiment", "E5", "-accesses", "8000", "-apps", "browser", "-sample", "1/8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("sampled experiment produced no output")
	}
	for _, bad := range []string{"3", "1/0", "junk"} {
		if err := run([]string{"-experiment", "E5", "-sample", bad}, &out); err == nil {
			t.Errorf("-sample %q accepted", bad)
		}
	}
	// 20k accesses: below that, cold-start transients dominate the
	// energy estimate and the grid legitimately breaches the bound
	// (EXPERIMENTS.md documents the trace-length sensitivity).
	out.Reset()
	err = run([]string{"-sample-validate", "-accesses", "20000", "-apps", "browser,music", "-audit", "strict"}, &out)
	if err != nil {
		t.Fatalf("sample-validate failed: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"spec 1/8", "speedup", "PASS", "dp-sr"} {
		if !strings.Contains(s, want) {
			t.Errorf("sample-validate output missing %q:\n%s", want, s)
		}
	}
}
