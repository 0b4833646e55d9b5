package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mobilecache/internal/sample"
)

// SampleMachineError is one machine's sampled-vs-full comparison,
// aggregated over every (app, seed) cell of the validation plan.
type SampleMachineError struct {
	Machine string
	// Full / Sampled L2 miss rates (aggregate misses over aggregate
	// accesses) and total energies (joules, summed over cells).
	FullMissRate    float64
	SampledMissRate float64
	FullEnergyJ     float64
	SampledEnergyJ  float64
	// MissRateRelErr and EnergyRelErr are |sampled-full|/full (0 when
	// the full-run denominator is 0).
	MissRateRelErr float64
	EnergyRelErr   float64
}

// SampleValidation is the outcome of one sampled-vs-full validation:
// per-machine relative errors plus the wall-clock of both arms.
// Wall-clock is informative, not a controlled benchmark — memo hits
// (e.g. validating twice on one engine) make an arm nearly free. Each
// arm pays for its own traces: the arena stores front outputs and no
// trace, and the spec is part of the front key, so the sampled arm
// generates every trace again rather than reading the full arm's.
type SampleValidation struct {
	Spec      sample.Spec
	Tolerance float64
	Machines  []SampleMachineError
	// FullWall and SampledWall time the two Execute arms.
	FullWall    time.Duration
	SampledWall time.Duration
}

// Speedup is the full arm's wall-clock over the sampled arm's.
func (v SampleValidation) Speedup() float64 {
	if v.SampledWall <= 0 {
		return 0
	}
	return float64(v.FullWall) / float64(v.SampledWall)
}

// Err reports the machines breaching the tolerance, nil when all are
// within it.
func (v SampleValidation) Err() error {
	var bad []string
	for _, m := range v.Machines {
		if m.MissRateRelErr > v.Tolerance || m.EnergyRelErr > v.Tolerance {
			bad = append(bad, fmt.Sprintf("%s (miss rate %.2f%%, energy %.2f%%)",
				m.Machine, 100*m.MissRateRelErr, 100*m.EnergyRelErr))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("engine: sampling %s exceeds %.1f%% relative error on: %s",
		v.Spec, 100*v.Tolerance, strings.Join(bad, ", "))
}

// relErr is |got-want|/|want|, 0 for a zero reference.
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := (got - want) / want
	if d < 0 {
		d = -d
	}
	return d
}

// ValidateSample runs the plan twice — full and sampled under spec —
// and aggregates per-machine relative errors of the two headline
// metrics (L2 miss rate, total energy). The returned error covers
// execution failures only; tolerance breaches are reported by the
// validation's Err so callers decide whether they are fatal. Both arms
// share the engine's trace arena, but neither reads the other's front
// outputs (their front keys differ in the spec), and their content keys
// differ by construction, so neither serves the other's memo entries.
func (e *Engine) ValidateSample(ctx context.Context, plan Plan, spec sample.Spec, tol float64) (SampleValidation, error) {
	v := SampleValidation{Spec: spec.Norm(), Tolerance: tol}
	if !v.Spec.Enabled() {
		return v, fmt.Errorf("engine: validation needs an enabled sampling spec, got %s", v.Spec)
	}

	type agg struct {
		accesses, misses uint64
		energyJ          float64
	}
	runArm := func(s sample.Spec) (map[string]*agg, []string, time.Duration, error) {
		p := plan
		p.Sample = s
		col := NewCollector()
		start := time.Now()
		sum, err := e.Execute(ctx, p, ExecOptions{}, col)
		wall := time.Since(start)
		if err != nil {
			return nil, nil, wall, err
		}
		if n := len(sum.Manifest.Failed); n > 0 {
			return nil, nil, wall, fmt.Errorf("engine: %d cells failed during sample validation", n)
		}
		aggs := make(map[string]*agg)
		var order []string
		for _, r := range col.Results {
			a := aggs[r.Cell.Machine]
			if a == nil {
				a = &agg{}
				aggs[r.Cell.Machine] = a
				order = append(order, r.Cell.Machine)
			}
			a.accesses += r.Report.L2.TotalAccesses()
			a.misses += r.Report.L2.TotalMisses()
			a.energyJ += r.Report.Energy.TotalJ()
		}
		return aggs, order, wall, nil
	}

	full, order, fullWall, err := runArm(sample.Spec{})
	if err != nil {
		return v, err
	}
	v.FullWall = fullWall
	sampled, _, sampledWall, err := runArm(v.Spec)
	if err != nil {
		return v, err
	}
	v.SampledWall = sampledWall

	missRate := func(a *agg) float64 {
		if a.accesses == 0 {
			return 0
		}
		return float64(a.misses) / float64(a.accesses)
	}
	for _, machine := range order {
		f, s := full[machine], sampled[machine]
		if s == nil {
			return v, fmt.Errorf("engine: machine %s missing from sampled arm", machine)
		}
		m := SampleMachineError{
			Machine:         machine,
			FullMissRate:    missRate(f),
			SampledMissRate: missRate(s),
			FullEnergyJ:     f.energyJ,
			SampledEnergyJ:  s.energyJ,
		}
		m.MissRateRelErr = relErr(m.SampledMissRate, m.FullMissRate)
		m.EnergyRelErr = relErr(m.SampledEnergyJ, m.FullEnergyJ)
		v.Machines = append(v.Machines, m)
	}
	return v, nil
}
