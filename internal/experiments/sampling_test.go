package experiments

import (
	"strings"
	"testing"

	"mobilecache/internal/invariant"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
)

// The PR's accuracy gate: at the default 1/8 low-bit spec, every
// standard machine's aggregate L2 miss rate and total energy stay
// within 2% of the exact simulation over the quick-matrix grid. Runs
// under strict audit so both arms are also invariant-checked.
func TestSampleValidationQuickMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation grid is slow; run without -short")
	}
	t.Cleanup(sim.SetAuditMode(invariant.ModeStrict))
	v, err := ValidateSample(quickOptions(), sample.Spec{Factor: 8}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sim.StandardMachines()); len(v.Machines) != want {
		t.Fatalf("%d machines validated, want %d", len(v.Machines), want)
	}
	for _, m := range v.Machines {
		t.Logf("%-14s miss rate %.4f→%.4f (%.2f%%)  energy %.3e→%.3e (%.2f%%)",
			m.Machine, m.FullMissRate, m.SampledMissRate, 100*m.MissRateRelErr,
			m.FullEnergyJ, m.SampledEnergyJ, 100*m.EnergyRelErr)
	}
	if err := v.Err(); err != nil {
		t.Errorf("1/8 sampling breaches the 2%% bound: %v", err)
	}
}

// Options.Validate rejects malformed sampling specs before any cell
// runs, and ValidateSample propagates that rejection.
func TestSampleOptionsValidation(t *testing.T) {
	opts := quickOptions()
	opts.Sample = sample.Spec{Factor: 3}
	if err := opts.Validate(); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Errorf("factor 3 accepted or wrong error: %v", err)
	}
	if _, err := ValidateSample(opts, sample.Spec{Factor: 8}, 0.02); err == nil {
		t.Error("ValidateSample accepted options with an invalid spec")
	}
}

// Sampled experiment runs flow through the same registry entry points:
// a representative experiment runs end to end with sampling enabled
// and produces the same table shape as the exact run.
func TestExperimentRunsSampled(t *testing.T) {
	opts := quickOptions()
	opts.Accesses = 20_000
	full, err := Run("E1", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Sample = sample.Spec{Factor: 8}
	samp, err := Run("E1", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(samp.Tables) != len(full.Tables) {
		t.Fatalf("sampled run produced %d tables, full %d", len(samp.Tables), len(full.Tables))
	}
	for name, fv := range full.Values {
		sv, ok := samp.Values[name]
		if !ok {
			t.Errorf("sampled run missing value %q", name)
			continue
		}
		if fv != 0 {
			if d := (sv - fv) / fv; d > 0.25 || d < -0.25 {
				t.Errorf("value %q drifts %.1f%% under 1/8 sampling (full %g sampled %g)",
					name, 100*d, fv, sv)
			}
		}
	}
}
