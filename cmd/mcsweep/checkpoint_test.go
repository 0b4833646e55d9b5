package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mobilecache/internal/faultfs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mobilecache/internal/checkpoint"
	"mobilecache/internal/sim"
)

// TestFlagValidationFailsFast: nonsensical harness settings must be
// rejected before any cell runs, not silently clamped or hung on.
func TestFlagValidationFailsFast(t *testing.T) {
	spec := writeSpec(t, `{
		"machines": ["baseline-sram"],
		"apps": ["music"],
		"seeds": [1],
		"accesses": 1000
	}`)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero-jobs", []string{"-jobs", "0"}, "-jobs"},
		{"negative-jobs", []string{"-jobs", "-4"}, "-jobs"},
		{"negative-timeout", []string{"-timeout", "-1s"}, "-timeout"},
		// Cells run once; the retired retry knob is an undefined flag.
		{"retired-retries", []string{"-retries", "1"}, "not defined: -retries"},
		{"negative-trace-cache", []string{"-trace-cache-mb", "-1"}, "-trace-cache-mb"},
		{"resume-without-checkpoint", []string{"-resume"}, "-resume"},
		// Every report is audited; the retired audit-mode knob is an
		// undefined flag.
		{"retired-audit", []string{"-audit", "strict"}, "not defined: -audit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-spec", spec}, tc.args...)
			err := run(args, io.Discard, io.Discard)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the bad flag %q", err, tc.want)
			}
		})
	}
}

// journalReports decodes a checkpoint journal into key -> report.
func journalReports(t *testing.T, path string) map[checkpoint.Key]sim.RunReport {
	t.Helper()
	entries, info, err := checkpoint.ReadFS(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if info.DiscardedBytes != 0 {
		t.Fatalf("journal %s has %d corrupt bytes", path, info.DiscardedBytes)
	}
	out := make(map[checkpoint.Key]sim.RunReport, len(entries))
	for _, e := range entries {
		var rep sim.RunReport
		if err := json.Unmarshal(e.Data, &rep); err != nil {
			t.Fatal(err)
		}
		out[e.Key] = rep
	}
	return out
}

// TestCheckpointKillAndResume is the PR's end-to-end acceptance test:
// a sweep that dies partway (chaos-injected failures standing in for a
// kill) leaves a journal; resuming completes only the missing cells
// and the combined results are identical — byte-identical CSV, deeply
// equal reports — to a sweep that never died.
func TestCheckpointKillAndResume(t *testing.T) {
	spec := writeSpec(t, `{
		"machines": ["baseline-sram", "sp-mr"],
		"apps": ["music"],
		"seeds": [1, 2, 3, 4],
		"accesses": 20000
	}`)
	dir := t.TempDir()
	refCk := filepath.Join(dir, "ref.ckpt")
	ck := filepath.Join(dir, "sweep.ckpt")

	// Reference: uninterrupted run.
	var refCSV bytes.Buffer
	if err := run([]string{"-spec", spec, "-jobs", "2", "-checkpoint", refCk}, &refCSV, io.Discard); err != nil {
		t.Fatal(err)
	}
	refReports := journalReports(t, refCk)
	if len(refReports) != 8 {
		t.Fatalf("reference journal has %d entries, want 8", len(refReports))
	}

	// "Killed" run: chaos fails a subset of cells permanently; the
	// journal captures exactly the cells that completed.
	restore := sim.InstallChaos(&sim.Chaos{ErrorRate: 0.4, Seed: 4})
	err := run([]string{"-spec", spec, "-jobs", "2", "-keep-going", "-checkpoint", ck}, io.Discard, io.Discard)
	restore()
	if err == nil {
		t.Fatal("chaos run reported no failures; pick a chaos seed that kills some cells")
	}
	partial := journalReports(t, ck)
	if len(partial) == 0 || len(partial) >= 8 {
		t.Fatalf("partial journal has %d entries; need a strict subset to make resume meaningful", len(partial))
	}

	// Resume: only the lost cells re-run; the rest replay from disk.
	var resCSV, resErr bytes.Buffer
	if err := run([]string{"-spec", spec, "-jobs", "2", "-checkpoint", ck, "-resume"}, &resCSV, &resErr); err != nil {
		t.Fatalf("resume failed: %v\n%s", err, resErr.String())
	}
	if !strings.Contains(resErr.String(), fmt.Sprintf("%d resumed", len(partial))) {
		t.Fatalf("summary does not report %d resumed cells:\n%s", len(partial), resErr.String())
	}

	// The resumed sweep's CSV is byte-identical to the uninterrupted one.
	if !bytes.Equal(resCSV.Bytes(), refCSV.Bytes()) {
		t.Fatalf("resumed CSV diverges from uninterrupted CSV:\n--- resumed ---\n%s--- reference ---\n%s",
			resCSV.String(), refCSV.String())
	}

	// And the journal now holds all 8 reports, deeply equal to the
	// uninterrupted run's.
	combined := journalReports(t, ck)
	if !reflect.DeepEqual(combined, refReports) {
		t.Fatal("combined journal reports differ from uninterrupted run")
	}
}

// TestResumeDiscardsTornTail: a journal cut mid-record (a real kill,
// not a clean failure) must resume from the valid prefix, report the
// discard, and still converge to the full result set.
func TestResumeDiscardsTornTail(t *testing.T) {
	spec := writeSpec(t, `{
		"machines": ["baseline-sram"],
		"apps": ["music"],
		"seeds": [1, 2, 3],
		"accesses": 20000
	}`)
	ck := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := run([]string{"-spec", spec, "-checkpoint", ck}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: the classic torn write of a kill -9.
	if err := os.WriteFile(ck, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if err := run([]string{"-spec", spec, "-checkpoint", ck, "-resume"}, &out, &errOut); err != nil {
		t.Fatalf("resume over torn tail failed: %v", err)
	}
	if !strings.Contains(errOut.String(), "discarded") {
		t.Fatalf("summary does not mention the discarded tail:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "2 resumed") {
		t.Fatalf("want 2 resumed cells (third was torn):\n%s", errOut.String())
	}
	if got := journalReports(t, ck); len(got) != 3 {
		t.Fatalf("journal after resume holds %d reports, want 3", len(got))
	}
}

// TestStrictAuditViolationsInManifest: a miscounted report must fail
// its cell with no flag given, and surface as a structured invariant
// failure in the manifest — the audit layer's end-to-end promise.
func TestStrictAuditViolationsInManifest(t *testing.T) {
	restoreTamper := sim.SetAuditTamper(func(r *sim.RunReport) {
		r.L2.Hits[0]++ // silently lose the conservation law
	})
	t.Cleanup(restoreTamper)

	spec := writeSpec(t, `{
		"machines": ["baseline-sram"],
		"apps": ["music"],
		"seeds": [1, 2],
		"accesses": 10000
	}`)
	manifestPath := filepath.Join(t.TempDir(), "failures.json")
	err := run([]string{"-spec", spec, "-keep-going", "-failures-out", manifestPath},
		io.Discard, io.Discard)
	if err == nil {
		t.Fatal("the audit let a miscounted sweep pass")
	}

	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Failed []struct {
			Machine    string   `json:"machine"`
			Violations []string `json:"violations"`
		} `json:"failed"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Failed) != 2 {
		t.Fatalf("manifest has %d failures, want 2", len(m.Failed))
	}
	for _, f := range m.Failed {
		if len(f.Violations) == 0 || !strings.Contains(f.Violations[0], "l2.conservation") {
			t.Fatalf("failure lacks structured violations: %+v", f)
		}
	}
}
