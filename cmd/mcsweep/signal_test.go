package main

import (
	"bytes"
	"io"
	"mobilecache/internal/faultfs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mobilecache/internal/checkpoint"
)

// TestSigintFlushesJournalAndSuggestsResume delivers a real SIGINT to
// the process mid-sweep: the run must stop, leave a clean (fsynced,
// untorn) journal of every completed cell, exit with an error naming
// -resume — and the resumed run must converge to a CSV byte-identical
// to an uninterrupted sweep.
func TestSigintFlushesJournalAndSuggestsResume(t *testing.T) {
	spec := writeSpec(t, `{
		"machines": ["baseline-sram", "sp-mr", "dp-sr"],
		"apps": ["browser", "music"],
		"seeds": [1, 2, 3, 4],
		"accesses": 150000
	}`)
	dir := t.TempDir()
	ck := filepath.Join(dir, "sweep.ckpt")
	out := filepath.Join(dir, "out.csv")

	errCh := make(chan error, 1)
	var errOut bytes.Buffer
	go func() {
		errCh <- run([]string{"-spec", spec, "-jobs", "2", "-checkpoint", ck, "-o", out}, io.Discard, &errOut)
	}()

	// Wait for at least one journaled cell, then interrupt ourselves.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no cell was journaled before the deadline")
		}
		if entries, _, err := checkpoint.ReadFS(faultfs.OS, ck); err == nil && len(entries) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}

	var runErr error
	select {
	case runErr = <-errCh:
	case <-time.After(60 * time.Second):
		t.Fatal("interrupted sweep did not return")
	}
	if runErr == nil {
		// The sweep finished before the signal landed — the interruption
		// path was not exercised; the spec above must be big enough that
		// this cannot happen on any realistic machine.
		t.Fatal("sweep completed before SIGINT; grow the spec")
	}
	if !strings.Contains(runErr.Error(), "-resume") {
		t.Fatalf("interrupted run error %q does not point at -resume", runErr)
	}

	// The journal survived the interrupt clean: a valid prefix with no
	// corrupt tail, holding a strict subset of the grid.
	entries, info, err := checkpoint.ReadFS(faultfs.OS, ck)
	if err != nil {
		t.Fatal(err)
	}
	if info.DiscardedBytes != 0 {
		t.Fatalf("journal has %d corrupt bytes after SIGINT; the shutdown path must fsync complete frames only", info.DiscardedBytes)
	}
	if len(entries) == 0 {
		t.Fatal("journal is empty after SIGINT")
	}

	// Resume completes the sweep; the CSV matches an uninterrupted run.
	var resumed, reference bytes.Buffer
	if err := run([]string{"-spec", spec, "-jobs", "2", "-checkpoint", ck, "-resume"}, &resumed, io.Discard); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if err := run([]string{"-spec", spec, "-jobs", "2"}, &reference, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed.Bytes(), reference.Bytes()) {
		t.Fatalf("resumed CSV diverges from uninterrupted run:\n--- resumed ---\n%s--- reference ---\n%s",
			resumed.String(), reference.String())
	}
}
