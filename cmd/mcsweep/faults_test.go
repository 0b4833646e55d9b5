package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobilecache/internal/engine"
	"mobilecache/internal/faultfs"
	"mobilecache/internal/jobs"
)

// TestStorageFaultNamesResume: an I/O fault during a checkpointed
// sweep must surface as an IsIOFault error (main maps it to exit 3)
// whose message names -resume — the operator's way forward.
func TestStorageFaultNamesResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	opt := options{
		jobs: 1, keepGoing: true,
		checkpointPath: ckpt,
		// The second sync of the journal fails: some cells land, then
		// the disk "breaks".
		fs: faultfs.New(faultfs.NewPlan().ENOSPCStreak(4, 0)),
	}
	spec := jobs.Spec{Machines: []string{"baseline-sram"}, Apps: []string{"browser"}, Seeds: []uint64{1, 2, 3}, Accesses: 2000}
	err := sweep(context.Background(), spec, opt, engine.NewCSV(io.Discard), io.Discard)
	if err == nil {
		t.Fatal("sweep over a failing disk succeeded")
	}
	if !faultfs.IsIOFault(err) {
		t.Fatalf("error not classified as an I/O fault (exit 3): %v", err)
	}
	if !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("storage-fault error does not name -resume: %v", err)
	}
	if !strings.Contains(err.Error(), ckpt) {
		t.Fatalf("storage-fault error does not name the journal: %v", err)
	}
}

// TestOutputFileAtomic: -o lands the CSV via atomic rename — complete
// file, no stray temp — and matches the stdout rendering byte for byte.
func TestOutputFileAtomic(t *testing.T) {
	spec := writeSpec(t, `{
		"machines": ["baseline-sram"],
		"apps": ["music"],
		"seeds": [7],
		"accesses": 2000
	}`)
	var viaStdout bytes.Buffer
	if err := run([]string{"-spec", spec}, &viaStdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(t.TempDir(), "results.csv")
	if err := run([]string{"-spec", spec, "-o", outPath}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, viaStdout.Bytes()) {
		t.Fatalf("-o file differs from stdout rendering:\n%s\nvs\n%s", got, viaStdout.Bytes())
	}
	if _, err := os.Stat(outPath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("-o left its temp file behind (stat err %v)", err)
	}
}
