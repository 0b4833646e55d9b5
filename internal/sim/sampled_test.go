package sim

import (
	"context"
	"reflect"
	"testing"

	"mobilecache/internal/sample"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// Property (satellite of PR 5): a disabled sampling spec is provably
// zero-cost — for every standard machine, Run and RunWorkloadSampled
// under a factor-1 spec return a RunReport DeepEqual to the zero-spec
// run.
func TestSampledFactorOneDeepEqual(t *testing.T) {
	prof := workload.Profiles()[0]
	const seed, accesses = 1, 20_000
	for _, cfg := range StandardMachines() {
		store := tracestore.New(0)
		want, err := Run(context.Background(), store, cfg, prof, seed, 0, accesses, sample.Spec{})
		if err != nil {
			t.Fatalf("%s full: %v", cfg.Name, err)
		}
		for _, spec := range []sample.Spec{{}, {Factor: 1}, {Factor: 1, Hash: true}} {
			got, err := Run(context.Background(), store, cfg, prof, seed, 0, accesses, spec)
			if err != nil {
				t.Fatalf("%s sampled %v: %v", cfg.Name, spec, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: factor-1 sampled report differs from unsampled (spec %+v)", cfg.Name, spec)
			}
		}
		// Generator-driven path too.
		got, err := RunWorkloadSampled(cfg, prof, seed, accesses, sample.Spec{Factor: 1})
		if err != nil {
			t.Fatalf("%s generator sampled: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: generator factor-1 sampled report differs", cfg.Name)
		}
	}
}

func TestSampledWarmFactorOneDeepEqual(t *testing.T) {
	prof := workload.Profiles()[1]
	const seed, warmup, measure = 7, 5_000, 15_000
	for _, cfg := range StandardMachines() {
		store := tracestore.New(0)
		want, err := Run(context.Background(), store, cfg, prof, seed, warmup, measure, sample.Spec{})
		if err != nil {
			t.Fatalf("%s full warm: %v", cfg.Name, err)
		}
		got, err := Run(context.Background(), store, cfg, prof, seed, warmup, measure, sample.Spec{Factor: 1})
		if err != nil {
			t.Fatalf("%s sampled warm: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: factor-1 warm sampled report differs from unsampled", cfg.Name)
		}
	}
}

// Sampled runs must be audit-clean twice over: the raw
// counters are audited inside the entry point, and the scaled report
// must satisfy the same conservation laws (uniform scaling preserves
// every exact identity).
func TestSampledStrictAuditCleanRawAndScaled(t *testing.T) {
	prof := workload.Profiles()[2]
	for _, cfg := range StandardMachines() {
		for _, spec := range []sample.Spec{{Factor: 8}, {Factor: 8, Hash: true}} {
			store := tracestore.New(0)
			rep, err := Run(context.Background(), store, cfg, prof, 3, 0, 40_000, spec)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg.Name, spec, err)
			}
			if rep.SampleFactor != 8 {
				t.Fatalf("%s %s: SampleFactor = %d, want 8", cfg.Name, spec, rep.SampleFactor)
			}
			if vs := Audit(rep); len(vs) != 0 {
				t.Errorf("%s %s: scaled report violates invariants: %v", cfg.Name, spec, vs)
			}
		}
	}
}

// The scaled set-indexed counters of a factor-f run are exact
// multiples of f (every extensive counter is multiplied, never
// averaged), and the instruction redistribution in the filter makes
// the scaled instruction count land essentially on the full run's:
// dropped records' gaps are carried into the kept stream at 1/f, so
// the estimate is exact up to the trailing remainder. The access
// count is per-reference, not per-set — popularity of the selected
// groups is workload-dependent (>2x off nominal on zipfian apps) —
// so the scaler corrects it with the filter's measured total
// seen/kept ratio, which for a cold run reconstructs the full count
// exactly: the filter saw every raw record.
func TestSampledScalingShape(t *testing.T) {
	cfg, err := MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.Profiles()[0]
	store := tracestore.New(0)
	full, err := Run(context.Background(), store, cfg, prof, 1, 0, 80_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, hash := range []bool{false, true} {
		for _, f := range []int{2, 4, 8} {
			rep, err := Run(context.Background(), store, cfg, prof, 1, 0, 80_000, sample.Spec{Factor: f, Hash: hash})
			if err != nil {
				t.Fatalf("factor %d: %v", f, err)
			}
			uf := uint64(f)
			for name, v := range map[string]uint64{
				"cpu.cycles":  rep.CPU.Cycles,
				"l2.accesses": rep.L2.TotalAccesses(),
				"dram.reads":  rep.DRAMReads,
			} {
				if v%uf != 0 {
					t.Errorf("hash=%v factor %d: %s = %d not a multiple of the factor", hash, f, name, v)
				}
			}
			if d := int64(rep.CPU.Accesses) - int64(full.CPU.Accesses); d < -1 || d > 1 {
				t.Errorf("hash=%v factor %d: scaled accesses %d != full %d (cold-run ratio correction is exact)",
					hash, f, rep.CPU.Accesses, full.CPU.Accesses)
			}
			ratio := float64(rep.CPU.Instructions) / float64(full.CPU.Instructions)
			if ratio < 0.999 || ratio > 1.001 {
				t.Errorf("hash=%v factor %d: scaled instructions %d vs full %d (ratio %.5f) outside 0.1%%",
					hash, f, rep.CPU.Instructions, full.CPU.Instructions, ratio)
			}
			// Simulated time follows instructions plus stalls; stalls carry
			// set-sampling variance, so the bound is looser.
			cr := float64(rep.CPU.Cycles) / float64(full.CPU.Cycles)
			if cr < 0.95 || cr > 1.05 {
				t.Errorf("hash=%v factor %d: scaled cycles %d vs full %d (ratio %.3f) outside 5%%",
					hash, f, rep.CPU.Cycles, full.CPU.Cycles, cr)
			}
		}
	}
}

// Smoke accuracy bound at the sim level (the engine-level quick-matrix
// validation is the authoritative gate): at the default 1/8 spec the
// headline metrics stay within a loose bound on one machine/app pair.
func TestSampledAccuracySmoke(t *testing.T) {
	cfg, err := MachineByName("sp-mr")
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.Profiles()[0]
	store := tracestore.New(0)
	full, err := Run(context.Background(), store, cfg, prof, 1, 0, 80_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), store, cfg, prof, 1, 0, 80_000, sample.Spec{Factor: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fullMR, sampMR := full.L2.MissRate(), rep.L2.MissRate(); fullMR > 0 {
		if d := (sampMR - fullMR) / fullMR; d > 0.05 || d < -0.05 {
			t.Errorf("miss rate rel err %.3f outside 5%%: full %.4f sampled %.4f", d, fullMR, sampMR)
		}
	}
	fullE, sampE := full.Energy.TotalJ(), rep.Energy.TotalJ()
	if d := (sampE - fullE) / fullE; d > 0.05 || d < -0.05 {
		t.Errorf("energy rel err %.3f outside 5%%: full %.4g sampled %.4g", d, fullE, sampE)
	}
}
