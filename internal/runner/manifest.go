package runner

import (
	"encoding/json"
	"errors"
	"io"
)

// Failure is one manifest entry naming a lost cell.
type Failure struct {
	Machine  string `json:"machine"`
	App      string `json:"app"`
	Seed     uint64 `json:"seed"`
	Panicked bool   `json:"panicked,omitempty"`
	Error    string `json:"error"`
	// Violations carries the structured invariant-audit findings when
	// the failure is a strict-audit error (see internal/invariant);
	// empty for ordinary failures.
	Violations []string `json:"violations,omitempty"`
}

// violationCarrier is the duck-typed hook invariant-audit errors
// implement; matching on the method keeps runner free of an
// internal/invariant import.
type violationCarrier interface{ InvariantViolations() []string }

// failureOf flattens one RunError into its manifest entry.
func failureOf(e *RunError) Failure {
	f := Failure{
		Machine:  e.Cell.Machine,
		App:      e.Cell.App,
		Seed:     e.Cell.Seed,
		Panicked: e.Panicked,
		Error:    e.Err.Error(),
	}
	var vc violationCarrier
	if errors.As(e.Err, &vc) {
		f.Violations = vc.InvariantViolations()
	}
	return f
}

// Manifest summarizes a degraded sweep: how many cells ran, which
// failed and why. It is what -keep-going leaves behind so a failed
// subset can be diagnosed and re-run without repeating the healthy
// cells.
type Manifest struct {
	TotalCells int       `json:"total_cells"`
	Succeeded  int       `json:"succeeded"`
	Failed     []Failure `json:"failed"`
}

// BuildManifest collapses a run's outcomes into a manifest. Failures
// appear in cell (input) order, so identical inputs yield identical
// manifests regardless of scheduling.
func BuildManifest[T any](outcomes []Outcome[T]) Manifest {
	m := Manifest{TotalCells: len(outcomes), Failed: []Failure{}}
	for _, o := range outcomes {
		if o.Err == nil {
			m.Succeeded++
			continue
		}
		m.Failed = append(m.Failed, failureOf(o.Err))
	}
	return m
}

// WriteJSON emits the manifest as indented JSON.
func (m Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
