package sim

import (
	"strings"
	"testing"

	"mobilecache/internal/runner"
	"mobilecache/internal/sample"
	"mobilecache/internal/workload"
)

func TestChaosOffByDefault(t *testing.T) {
	cfg, err := MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ProfileByName("music")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, cfg, prof, 1, 0, 1000, sample.Spec{}); err != nil {
		t.Fatalf("clean run failed without chaos: %v", err)
	}
}

func TestChaosRatesAndDeterminism(t *testing.T) {
	restore := InstallChaos(&Chaos{PanicRate: 0.25, ErrorRate: 0.25, Seed: 42})
	t.Cleanup(restore)
	cfg, err := MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ProfileByName("music")
	if err != nil {
		t.Fatal(err)
	}
	outcome := func(seed uint64) string {
		var res string
		func() {
			defer func() {
				if r := recover(); r != nil {
					res = "panic"
				}
			}()
			if _, err := Run(nil, cfg, prof, seed, 0, 500, sample.Spec{}); err != nil {
				res = "error"
				return
			}
			res = "ok"
		}()
		return res
	}
	counts := map[string]int{}
	for seed := uint64(0); seed < 40; seed++ {
		first := outcome(seed)
		counts[first]++
		// Same cell identity must fail the same way every time.
		if again := outcome(seed); again != first {
			t.Fatalf("seed %d: outcome changed %s -> %s", seed, first, again)
		}
	}
	if counts["panic"] == 0 || counts["error"] == 0 || counts["ok"] == 0 {
		t.Fatalf("chaos rates not exercised over 40 cells: %v", counts)
	}
}

func TestChaosFlakyIsTransientOnce(t *testing.T) {
	restore := InstallChaos(&Chaos{FlakyRate: 1, Seed: 7})
	t.Cleanup(restore)
	cfg, err := MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ProfileByName("music")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(nil, cfg, prof, 9, 0, 500, sample.Spec{})
	if err == nil || !runner.IsTransient(err) {
		t.Fatalf("first attempt err = %v, want transient", err)
	}
	if !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("error does not identify chaos: %v", err)
	}
	if _, err := Run(nil, cfg, prof, 9, 0, 500, sample.Spec{}); err != nil {
		t.Fatalf("second attempt should succeed, got %v", err)
	}
}

func TestInstallChaosRestores(t *testing.T) {
	restore := InstallChaos(&Chaos{ErrorRate: 1})
	restore()
	cfg, _ := MachineByName("baseline-sram")
	prof, _ := workload.ProfileByName("music")
	if _, err := Run(nil, cfg, prof, 1, 0, 500, sample.Spec{}); err != nil {
		t.Fatalf("chaos still active after restore: %v", err)
	}
}
