package jobs

import (
	"fmt"
	"io"

	"mobilecache/internal/engine"
	"mobilecache/internal/sample"
	"mobilecache/internal/strictjson"
	"mobilecache/internal/workload"
)

// Spec is the sweep a client submits, and the spec file cmd/mcsweep
// runs: a grid of machines x apps x seeds at a run length, plus the
// optional warmup and set-sampling spec. Machine entries name standard
// schemes or point at config JSON files readable by the daemon.
type Spec struct {
	Machines []string `json:"machines"`
	Apps     []string `json:"apps"`
	Seeds    []uint64 `json:"seeds"`
	Accesses int      `json:"accesses"`
	Warmup   int      `json:"warmup,omitempty"`
	// Sample, when non-empty, runs every cell set-sampled; the format
	// is internal/sample's ("1/8", "hash:1/8").
	Sample string `json:"sample,omitempty"`
}

// Validate reports structural spec errors without resolving names.
func (s Spec) Validate() error {
	if len(s.Machines) == 0 {
		return fmt.Errorf("jobs: spec needs machines")
	}
	if len(s.Apps) == 0 {
		return fmt.Errorf("jobs: spec needs apps")
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("jobs: spec needs seeds")
	}
	if s.Accesses <= 0 {
		return fmt.Errorf("jobs: accesses must be positive")
	}
	if s.Warmup < 0 {
		return fmt.Errorf("jobs: negative warmup")
	}
	if s.Sample != "" {
		if _, err := sample.Parse(s.Sample); err != nil {
			return fmt.Errorf("jobs: sample: %w", err)
		}
	}
	return nil
}

// Cells is the grid size the spec expands to — the number the per-job
// cell budget is enforced against, computable before any resolution.
func (s Spec) Cells() int {
	return len(s.Machines) * len(s.Apps) * len(s.Seeds)
}

// Plan resolves the spec into an engine plan. Resolution failures
// (unknown scheme, unreadable config file, unknown app) are submission
// errors: the job is rejected before it exists.
func (s Spec) Plan() (engine.Plan, error) {
	if err := s.Validate(); err != nil {
		return engine.Plan{}, err
	}
	machines := make([]engine.MachineSpec, 0, len(s.Machines))
	for _, entry := range s.Machines {
		cfg, err := engine.ResolveMachine(entry)
		if err != nil {
			return engine.Plan{}, err
		}
		machines = append(machines, engine.MachineSpec{Label: entry, Config: cfg})
	}
	apps := make([]workload.Profile, 0, len(s.Apps))
	for _, name := range s.Apps {
		prof, err := workload.ProfileByName(name)
		if err != nil {
			return engine.Plan{}, err
		}
		apps = append(apps, prof)
	}
	p := engine.Grid(machines, apps, s.Seeds, s.Accesses, s.Warmup)
	if s.Sample != "" {
		spec, err := sample.Parse(s.Sample)
		if err != nil {
			return engine.Plan{}, err
		}
		p.Sample = spec
	}
	return p, nil
}

// DecodeSpec strictly decodes one spec from r: unknown fields, repeated
// keys and trailing data are submission errors, exactly as mcsweep
// treats its spec files — a daemon must not run a different sweep than
// the client thinks it posted.
func DecodeSpec(r io.Reader) (Spec, error) {
	var s Spec
	if err := strictjson.Decode(r, &s, "spec object"); err != nil {
		return Spec{}, fmt.Errorf("jobs: %w", err)
	}
	return s, s.Validate()
}
