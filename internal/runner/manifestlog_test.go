package runner

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mobilecache/internal/faultfs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// auditErr simulates internal/invariant's structured error through the
// duck-typed hook, without importing it.
type auditErr struct{ vs []string }

func (e *auditErr) Error() string                 { return "invariant audit: " + strings.Join(e.vs, "; ") }
func (e *auditErr) InvariantViolations() []string { return e.vs }

func TestOnFailureFiresIncrementally(t *testing.T) {
	cells := []Cell{
		{Machine: "m", App: "a", Seed: 1},
		{Machine: "m", App: "a", Seed: 2},
		{Machine: "m", App: "a", Seed: 3},
	}
	var mu sync.Mutex
	var seen []uint64
	cfg := Config{Workers: 1, KeepGoing: true, OnFailure: func(e *RunError) {
		mu.Lock()
		seen = append(seen, e.Cell.Seed)
		mu.Unlock()
	}}
	outcomes, err := Run(context.Background(), cfg, cells, func(ctx context.Context, c Cell) (int, error) {
		if c.Seed%2 == 1 {
			return 0, fmt.Errorf("boom %d", c.Seed)
		}
		return int(c.Seed), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 {
		t.Fatalf("OnFailure saw %v, want [1 3]", seen)
	}
	if outcomes[1].Err != nil {
		t.Fatal("healthy cell failed")
	}
}

func TestManifestLoggerIncrementalThenFinal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failures.json")
	lg, err := NewManifestLoggerFS(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}

	cells := []Cell{
		{Machine: "dp-sr", App: "browser", Seed: 1},
		{Machine: "dp-sr", App: "browser", Seed: 2},
	}
	cfg := Config{Workers: 1, KeepGoing: true, OnFailure: lg.Record}
	outcomes, err := Run(context.Background(), cfg, cells, func(ctx context.Context, c Cell) (int, error) {
		if c.Seed == 2 {
			return 0, &auditErr{vs: []string{"l2.conservation.user: hits 3 + misses 1 != accesses 5"}}
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Mid-sweep view: one JSON line per failure, already on disk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	var lines []Failure
	for sc.Scan() {
		var f Failure
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, f)
	}
	if len(lines) != 1 || lines[0].Seed != 2 {
		t.Fatalf("incremental log = %+v", lines)
	}
	if len(lines[0].Violations) != 1 || !strings.Contains(lines[0].Violations[0], "l2.conservation.user") {
		t.Fatalf("violations not extracted into incremental log: %+v", lines[0])
	}

	// Finalize atomically replaces the line log with the manifest.
	if err := lg.Finalize(BuildManifest(outcomes)); err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(final, &m); err != nil {
		t.Fatalf("final manifest is not a Manifest: %v", err)
	}
	if m.TotalCells != 2 || m.Succeeded != 1 || len(m.Failed) != 1 {
		t.Fatalf("manifest = %+v", m)
	}
	if len(m.Failed[0].Violations) != 1 {
		t.Fatalf("violations lost in final manifest: %+v", m.Failed[0])
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp file left behind")
	}
}

func TestBuildManifestExtractsViolations(t *testing.T) {
	out := []Outcome[int]{{
		Cell: Cell{Machine: "m", App: "a", Seed: 5},
		Err: &RunError{
			Cell:     Cell{Machine: "m", App: "a", Seed: 5},
			Attempts: 1,
			Err:      &auditErr{vs: []string{"v1", "v2"}},
		},
	}}
	m := BuildManifest(out)
	if len(m.Failed) != 1 || len(m.Failed[0].Violations) != 2 {
		t.Fatalf("manifest = %+v", m)
	}
}
