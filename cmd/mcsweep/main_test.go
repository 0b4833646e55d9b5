package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mobilecache/internal/engine"
	"mobilecache/internal/sim"
)

func writeSpec(t *testing.T, spec string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDumpSpec(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dump-spec"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"machines"`) {
		t.Fatalf("dump-spec output wrong:\n%s", out.String())
	}
}

// TestRunRejectsRetiredSegmentFlag: the retired segmented-replay flag is
// undefined, so an old script fails loudly instead of running serial.
func TestRunRejectsRetiredSegmentFlag(t *testing.T) {
	path := writeSpec(t, `{"machines": ["sp"], "apps": ["music"], "seeds": [1], "accesses": 1000}`)
	err := run([]string{"-spec", path, "-segment-workers", "2"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "not defined: -segment-workers") {
		t.Fatalf("run(-segment-workers 2) = %v, want an undefined-flag error", err)
	}
}

func TestSweepProducesCSV(t *testing.T) {
	path := writeSpec(t, `{
		"machines": ["baseline-sram", "sp-mr"],
		"apps": ["music"],
		"seeds": [1, 2],
		"accesses": 20000
	}`)
	var out bytes.Buffer
	if err := run([]string{"-spec", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + 2 machines x 1 app x 2 seeds.
	if len(rows) != 5 {
		t.Fatalf("csv has %d rows, want 5", len(rows))
	}
	if rows[0][0] != "machine" || rows[0][4] != "ipc" {
		t.Fatalf("header wrong: %v", rows[0])
	}
	// Every data row parses numerically where expected.
	for _, r := range rows[1:] {
		if _, err := strconv.ParseFloat(r[4], 64); err != nil {
			t.Fatalf("ipc cell %q not a float", r[4])
		}
		if _, err := strconv.ParseFloat(r[11], 64); err != nil {
			t.Fatalf("total energy cell %q not a float", r[11])
		}
	}
	// The sp-mr rows must show less L2 energy than baseline rows.
	var baseE, spmrE float64
	for _, r := range rows[1:] {
		e, _ := strconv.ParseFloat(r[11], 64)
		switch r[0] {
		case "baseline-sram":
			baseE += e
		case "sp-mr":
			spmrE += e
		}
	}
	if spmrE >= baseE {
		t.Fatalf("sweep results inconsistent: sp-mr %g >= baseline %g", spmrE, baseE)
	}
}

// TestSweepSharedTraceArena: all cells of a sweep share one trace
// store, so a 2-machine x 1-app x 2-seed sweep runs each of its 2
// traces through the L1s once, straight from the generator, into a
// derived front output (the two machines share a front key), stores
// no trace, and replays those outputs for the second machine — and
// the stderr summary surfaces those counters.
func TestSweepSharedTraceArena(t *testing.T) {
	path := writeSpec(t, `{
		"machines": ["baseline-sram", "sp-mr"],
		"apps": ["music"],
		"seeds": [1, 2],
		"accesses": 20000
	}`)
	var out, errOut bytes.Buffer
	if err := run([]string{"-spec", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	summary := errOut.String()
	if !strings.Contains(summary, "4 cells (4 ok, 0 failed, 0 resumed, 0 memoized)") {
		t.Fatalf("summary missing cell counts:\n%s", summary)
	}
	if !strings.Contains(summary, "2 generated (2 derived), 2 hits, 2 misses") {
		t.Fatalf("summary missing trace-arena counters (want 2 generated (2 derived), 2 hits, 2 misses):\n%s", summary)
	}
	// The cache summary surfaces the run memo alongside the arena: 4
	// distinct cells mean 4 memo misses and no hits.
	if !strings.Contains(summary, "run memo: 0 hits, 4 misses") {
		t.Fatalf("summary missing run-memo counters:\n%s", summary)
	}
}

func TestSweepWithWarmupAndFile(t *testing.T) {
	path := writeSpec(t, `{
		"machines": ["baseline-sram"],
		"apps": ["game"],
		"seeds": [3],
		"accesses": 15000,
		"warmup": 15000
	}`)
	outPath := filepath.Join(t.TempDir(), "out.csv")
	var out bytes.Buffer
	if err := run([]string{"-spec", path, "-o", outPath}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil || len(rows) != 2 {
		t.Fatalf("file csv rows = %d, err %v", len(rows), err)
	}
	if rows[1][3] != "15000" {
		t.Fatalf("warm run measured %s accesses, want 15000", rows[1][3])
	}
}

func TestSweepWithConfigFileMachine(t *testing.T) {
	mPath := filepath.Join("..", "..", "configs", "dp-sr.json")
	if _, err := os.Stat(mPath); err != nil {
		t.Skip("shipped configs not present")
	}
	spec := `{"machines": ["` + filepath.ToSlash(mPath) + `"], "apps": ["music"], "seeds": [1], "accesses": 10000}`
	path := writeSpec(t, spec)
	var out bytes.Buffer
	if err := run([]string{"-spec", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dp-sr") {
		t.Fatalf("config-file machine missing from output:\n%s", out.String())
	}
}

func TestSweepErrors(t *testing.T) {
	cases := []string{
		`{}`,
		`{"machines":["baseline-sram"]}`,
		`{"machines":["baseline-sram"],"apps":["music"]}`,
		`{"machines":["baseline-sram"],"apps":["music"],"seeds":[1]}`,
		`{"machines":["baseline-sram"],"apps":["music"],"seeds":[1],"accesses":-5}`,
		`{"machines":["nonexistent"],"apps":["music"],"seeds":[1],"accesses":100}`,
		`{"machines":["baseline-sram"],"apps":["nonexistent"],"seeds":[1],"accesses":100}`,
		`{"unknown_field":1}`,
	}
	for _, spec := range cases {
		path := writeSpec(t, spec)
		var out bytes.Buffer
		if err := run([]string{"-spec", path}, &out, io.Discard); err == nil {
			t.Errorf("spec %s accepted, want error", spec)
		}
	}
	var out bytes.Buffer
	if err := run([]string{}, &out, io.Discard); err == nil {
		t.Error("missing -spec accepted")
	}
	if err := run([]string{"-spec", "/does/not/exist.json"}, &out, io.Discard); err == nil {
		t.Error("missing spec file accepted")
	}
}

func TestSpecTrailingGarbageRejected(t *testing.T) {
	base := `{"machines":["baseline-sram"],"apps":["music"],"seeds":[1],"accesses":1000}`
	for _, trailing := range []string{`{}`, `garbage`, `42`, `{"machines":["sp"]}`} {
		path := writeSpec(t, base+"\n"+trailing)
		var out bytes.Buffer
		err := run([]string{"-spec", path}, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("spec with trailing %q: err = %v, want trailing-data error", trailing, err)
		}
	}
	// Trailing whitespace stays fine.
	path := writeSpec(t, base+"\n\n  \n")
	var out bytes.Buffer
	if err := run([]string{"-spec", path}, &out, io.Discard); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

func TestMachineForSchemeFirst(t *testing.T) {
	// Scheme names resolve even from a directory where a file of the
	// same name exists.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "sp-mr"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	m, err := engine.ResolveMachine("sp-mr")
	if err != nil || m.Name != "sp-mr" {
		t.Fatalf("engine.ResolveMachine(sp-mr) = %v, %v; want the standard scheme", m.Name, err)
	}
	// A dotted non-scheme, non-file entry fails loudly with both facts.
	_, err = engine.ResolveMachine("sp-mr.v2")
	if err == nil {
		t.Fatal("sp-mr.v2 accepted")
	}
	if !strings.Contains(err.Error(), "not a standard scheme") || !strings.Contains(err.Error(), "config file") {
		t.Fatalf("unclear resolution error: %v", err)
	}
}

func TestOutputFileCreateFailure(t *testing.T) {
	path := writeSpec(t, `{"machines":["baseline-sram"],"apps":["music"],"seeds":[1],"accesses":1000}`)
	var out bytes.Buffer
	// -o pointing into a missing directory must fail, not silently
	// write nowhere.
	if err := run([]string{"-spec", path, "-o", filepath.Join(t.TempDir(), "no", "such", "dir.csv")}, &out, io.Discard); err == nil {
		t.Fatal("unwritable -o accepted")
	}
}

// chaosSpec builds a 12-cell spec (3 machines x 2 apps x 2 seeds).
func chaosSpec(t *testing.T) string {
	return writeSpec(t, `{
		"machines": ["baseline-sram", "sp-mr", "dp-sr"],
		"apps": ["browser", "music"],
		"seeds": [1, 2],
		"accesses": 4000
	}`)
}

// The acceptance chaos drill: 12 cells, 25% injected panic/error rate,
// -keep-going. The sweep must exit non-zero, emit CSV rows for every
// healthy cell plus a manifest naming each failed (machine, app, seed),
// and reproduce the same manifest and CSV on a second run.
func TestChaosKeepGoingDegradesGracefully(t *testing.T) {
	restore := sim.InstallChaos(&sim.Chaos{PanicRate: 0.125, ErrorRate: 0.125, Seed: 4})
	defer restore()

	path := chaosSpec(t)
	runOnce := func() (string, string, error) {
		manifestPath := filepath.Join(t.TempDir(), "failed.json")
		var out bytes.Buffer
		err := run([]string{"-spec", path, "-jobs", "4", "-keep-going", "-failures-out", manifestPath}, &out, io.Discard)
		data, rerr := os.ReadFile(manifestPath)
		if rerr != nil {
			t.Fatalf("manifest not written: %v", rerr)
		}
		return out.String(), string(data), err
	}
	csvOut, manifestOut, err := runOnce()
	if err == nil {
		t.Fatal("sweep with failed cells exited zero")
	}

	var m struct {
		TotalCells int `json:"total_cells"`
		Succeeded  int `json:"succeeded"`
		Failed     []struct {
			Machine string `json:"machine"`
			App     string `json:"app"`
			Seed    uint64 `json:"seed"`
			Error   string `json:"error"`
		} `json:"failed"`
	}
	if err := json.Unmarshal([]byte(manifestOut), &m); err != nil {
		t.Fatal(err)
	}
	if m.TotalCells != 12 {
		t.Fatalf("manifest covers %d cells, want 12", m.TotalCells)
	}
	if len(m.Failed) == 0 || len(m.Failed) == 12 {
		t.Fatalf("chaos at 25%% should fail some but not all cells: %d/12 failed", len(m.Failed))
	}
	for _, f := range m.Failed {
		if f.Machine == "" || f.App == "" || f.Seed == 0 || f.Error == "" {
			t.Fatalf("manifest entry incomplete: %+v", f)
		}
	}

	rows, err := csv.NewReader(strings.NewReader(csvOut)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rows)-1, m.Succeeded; got != want {
		t.Fatalf("CSV has %d data rows, manifest says %d succeeded", got, want)
	}
	// No failed cell may appear in the CSV.
	failed := map[string]bool{}
	for _, f := range m.Failed {
		failed[f.Machine+"|"+f.App+"|"+strconv.FormatUint(f.Seed, 10)] = true
	}
	for _, r := range rows[1:] {
		if failed[r[0]+"|"+r[1]+"|"+r[2]] {
			t.Fatalf("failed cell %v leaked into the CSV", r[:3])
		}
	}

	// Same seed, same spec -> byte-identical manifest and CSV.
	csv2, manifest2, err2 := runOnce()
	if err2 == nil {
		t.Fatal("second run exited zero")
	}
	if manifest2 != manifestOut {
		t.Fatalf("manifest not reproducible:\n%s\n%s", manifestOut, manifest2)
	}
	if csv2 != csvOut {
		t.Fatal("CSV not reproducible across runs")
	}
}

func TestChaosWithoutKeepGoingAborts(t *testing.T) {
	restore := sim.InstallChaos(&sim.Chaos{ErrorRate: 0.25, Seed: 4})
	defer restore()
	var out bytes.Buffer
	err := run([]string{"-spec", chaosSpec(t), "-jobs", "2"}, &out, io.Discard)
	if err == nil {
		t.Fatal("failing sweep without -keep-going exited zero")
	}
	if !strings.Contains(err.Error(), "keep-going") {
		t.Fatalf("abort error should point at -keep-going: %v", err)
	}
}

func TestParallelSweepMatchesSerial(t *testing.T) {
	spec := writeSpec(t, `{
		"machines": ["baseline-sram", "sp-mr"],
		"apps": ["browser", "music"],
		"seeds": [1, 2],
		"accesses": 3000
	}`)
	var serial, parallel bytes.Buffer
	if err := run([]string{"-spec", spec, "-jobs", "1"}, &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", spec, "-jobs", "8"}, &parallel, io.Discard); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatal("-jobs changed the CSV bytes; ordered collection broken")
	}
}

// Satellite of PR 5: -sample validation is fail-fast. A malformed spec
// is rejected before any cell runs, and a valid spec produces the same
// row count as the exact sweep with a clear error otherwise.
func TestSampleFlagValidation(t *testing.T) {
	spec := writeSpec(t, `{
		"machines": ["baseline-sram"],
		"apps": ["music"],
		"seeds": [1],
		"accesses": 4000
	}`)
	for _, bad := range []string{"0", "1/0", "3", "1/3", "-8", "1/-8", "256", "1/256", "hash:", "nonsense"} {
		var out bytes.Buffer
		err := run([]string{"-spec", spec, "-sample", bad}, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-sample") {
			t.Errorf("-sample %q: err = %v, want fail-fast -sample error", bad, err)
		}
		if out.Len() != 0 {
			t.Errorf("-sample %q: cells ran before validation (wrote %d bytes)", bad, out.Len())
		}
	}
	var exact, sampled bytes.Buffer
	if err := run([]string{"-spec", spec}, &exact, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", spec, "-sample", "1/8"}, &sampled, io.Discard); err != nil {
		t.Fatalf("sampled sweep failed: %v", err)
	}
	er, _ := csv.NewReader(strings.NewReader(exact.String())).ReadAll()
	sr, err := csv.NewReader(strings.NewReader(sampled.String())).ReadAll()
	if err != nil || len(sr) != len(er) {
		t.Fatalf("sampled sweep rows = %d, err %v; want %d", len(sr), err, len(er))
	}
	if exact.String() == sampled.String() {
		t.Error("sampled CSV is byte-identical to the exact CSV; -sample not applied")
	}
}

// TestSpecSampleHonoured: a spec file's "sample" field samples the
// sweep as the daemon's job spec does, and -sample replaces it.
func TestSpecSampleHonoured(t *testing.T) {
	const grid = `"machines": ["baseline-sram", "dp"], "apps": ["music"], "seeds": [1], "accesses": 4000`
	exact := writeSpec(t, `{`+grid+`}`)
	sampled := writeSpec(t, `{`+grid+`, "sample": "1/8"}`)
	csvOf := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		return out.String()
	}
	if csvOf("-spec", sampled) != csvOf("-spec", exact, "-sample", "1/8") {
		t.Error(`spec "sample": "1/8" differs from -sample 1/8`)
	}
	if csvOf("-spec", sampled, "-sample", "1/4") != csvOf("-spec", exact, "-sample", "1/4") {
		t.Error(`-sample 1/4 did not replace the spec's "sample": "1/8"`)
	}
	if csvOf("-spec", sampled) == csvOf("-spec", exact) {
		t.Error(`spec "sample" ignored: sampled CSV equals the exact one`)
	}
}
