package sim

import (
	"testing"

	"mobilecache/internal/config"
	"mobilecache/internal/sample"
)

func TestRunWarmExcludesWarmup(t *testing.T) {
	prof := smallProfile()
	cold, err := Run(nil, config.Default(), prof, 5, 0, 80_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(nil, config.Default(), prof, 5, 40_000, 40_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	// The measured portion covers only the post-warmup accesses.
	if warm.CPU.Accesses != 40_000 {
		t.Fatalf("measured accesses = %d, want 40000", warm.CPU.Accesses)
	}
	// Warm measurement must show a lower miss rate than the cold run
	// (compulsory misses landed in the warmup window).
	if warm.L2.MissRate() >= cold.L2.MissRate() {
		t.Fatalf("warm miss rate %.3f not below cold %.3f", warm.L2.MissRate(), cold.L2.MissRate())
	}
	// Energy and DRAM traffic are measurement-only and must be well
	// below the cold whole-run totals.
	if warm.Energy.L2.Total() >= cold.Energy.L2.Total() {
		t.Fatal("warm energy not below full-run energy")
	}
	if warm.DRAMReads >= cold.DRAMReads {
		t.Fatal("warm DRAM reads not below full-run reads")
	}
}

func TestRunWarmCountersNonNegative(t *testing.T) {
	warm, err := Run(nil, config.Default(), smallProfile(), 9, 20_000, 20_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.L2.TotalAccesses() == 0 {
		t.Fatal("no measured L2 accesses")
	}
	if warm.L2.MissRate() < 0 || warm.L2.MissRate() > 1 {
		t.Fatalf("miss rate out of range: %g", warm.L2.MissRate())
	}
	bd := warm.Energy.L2
	for name, v := range map[string]float64{
		"read": bd.ReadJ, "write": bd.WriteJ, "leak": bd.LeakageJ, "refresh": bd.RefreshJ,
	} {
		if v < 0 {
			t.Fatalf("negative %s energy %g after subtraction", name, v)
		}
	}
}

func TestRunWarmDynamicHistoryTrimmed(t *testing.T) {
	cfg, err := MachineByName("dp")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(nil, cfg, smallProfile(), 3, 60_000, 60_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range warm.History {
		// All reported decisions must postdate the warmup window;
		// epoch 0 (the initial allocation) belongs to warmup.
		if d.Epoch == 0 {
			t.Fatal("history includes the warmup-era initial allocation")
		}
	}
}

func TestRunWarmDeterministic(t *testing.T) {
	a, err := Run(nil, config.Default(), smallProfile(), 2, 30_000, 30_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(nil, config.Default(), smallProfile(), 2, 30_000, 30_000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if a.L2.TotalMisses() != b.L2.TotalMisses() || a.Energy.L2.Total() != b.Energy.L2.Total() {
		t.Fatal("warm runs not deterministic")
	}
}
