package sim

import (
	"testing"

	"mobilecache/internal/config"
	"mobilecache/internal/sample"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

func TestStandardMachinesBuild(t *testing.T) {
	ms := StandardMachines()
	if len(ms) != 7 {
		t.Fatalf("standard machines = %d, want 7", len(ms))
	}
	for _, cfg := range ms {
		if err := cfg.Validate(); err != nil {
			t.Errorf("machine %s invalid: %v", cfg.Name, err)
			continue
		}
		m, err := Build(cfg)
		if err != nil {
			t.Errorf("machine %s failed to build: %v", cfg.Name, err)
			continue
		}
		if m.L2 == nil || m.CPU == nil || m.Hier == nil {
			t.Errorf("machine %s incompletely built", cfg.Name)
		}
	}
}

func TestMachineByName(t *testing.T) {
	m, err := MachineByName("sp-mr")
	if err != nil || m.Name != "sp-mr" {
		t.Fatalf("MachineByName(sp-mr) = %v, %v", m.Name, err)
	}
	if _, err := MachineByName("nope"); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if len(StandardMachineNames()) != 7 {
		t.Fatal("names list wrong")
	}
}

func TestBuildSchemeSpecificHandles(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		unified, static_, dynamic bool
		drowsy                    bool
	}{
		{"baseline-sram", true, false, false, false},
		{"sp", false, true, false, false},
		{"dp", false, false, true, false},
		{"baseline-drowsy", false, false, false, true},
	} {
		cfg, err := MachineByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (m.Unified != nil) != tc.unified || (m.Static != nil) != tc.static_ ||
			(m.Dynamic != nil) != tc.dynamic || (m.Drowsy != nil) != tc.drowsy {
			t.Errorf("%s handles wrong: unified=%v static=%v dynamic=%v drowsy=%v",
				tc.name, m.Unified != nil, m.Static != nil, m.Dynamic != nil, m.Drowsy != nil)
		}
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	bad := config.Default()
	bad.Name = ""
	if _, err := Build(bad); err == nil {
		t.Fatal("invalid config built")
	}
}

func smallProfile() workload.Profile {
	return workload.Profile{
		Name: "mini", KernelShare: 0.45,
		UserWorkingSet: 256 * workload.KB, KernelWorkingSet: 96 * workload.KB,
		UserZipf: 0.9, KernelZipf: 0.6,
		UserWriteRatio: 0.25, KernelWriteRatio: 0.5,
		UserStreamFrac: 0.05, KernelStreamFrac: 0.15,
		IfetchFrac: 0.25, UserCodeSet: 64 * workload.KB, KernelCodeSet: 32 * workload.KB,
		UserBurstMean: 120, GapMean: 2.2, Phases: 2,
	}
}

func TestRunWorkloadProducesReport(t *testing.T) {
	rep, err := Run(nil, config.Default(), smallProfile(), 3, 0, 60000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Machine != "baseline-sram" || rep.Workload != "mini" {
		t.Fatalf("identity wrong: %s/%s", rep.Machine, rep.Workload)
	}
	if rep.CPU.Accesses != 60000 {
		t.Fatalf("accesses = %d", rep.CPU.Accesses)
	}
	if rep.L2.TotalAccesses() == 0 {
		t.Fatal("no L2 accesses — L1 filtered everything?")
	}
	if rep.L2EnergyJ() <= 0 {
		t.Fatal("no L2 energy")
	}
	if rep.IPC() <= 0 || rep.IPC() > 1 {
		t.Fatalf("IPC = %g", rep.IPC())
	}
	if rep.DRAMReads == 0 {
		t.Fatal("no DRAM traffic")
	}
	if rep.L2InstalledBytes != 1024*1024 {
		t.Fatalf("installed = %d", rep.L2InstalledBytes)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(nil, config.Default(), smallProfile(), 9, 0, 30000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(nil, config.Default(), smallProfile(), 9, 0, 30000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Cycles != b.CPU.Cycles || a.L2.TotalMisses() != b.L2.TotalMisses() || a.L2EnergyJ() != b.L2EnergyJ() {
		t.Fatal("same-seed runs diverge")
	}
}

func TestDynamicRunRecordsHistory(t *testing.T) {
	cfg, err := MachineByName("dp")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(nil, cfg, smallProfile(), 5, 0, 120000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.History) == 0 {
		t.Fatal("dynamic run recorded no partition history")
	}
	if rep.L2PoweredBytes > rep.L2InstalledBytes {
		t.Fatal("powered exceeds installed")
	}
}

func TestStaticPartitionEliminatesInterference(t *testing.T) {
	base, err := Run(nil, config.Default(), smallProfile(), 7, 0, 80000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	spCfg, err := MachineByName("sp")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Run(nil, spCfg, smallProfile(), 7, 0, 80000, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if base.L2.InterferenceEvictions == 0 {
		t.Fatal("baseline shows no interference; workload too small?")
	}
	if sp.L2.InterferenceEvictions != 0 {
		t.Fatalf("static partition has %d interference evictions", sp.L2.InterferenceEvictions)
	}
}

func TestSchemesEnergyOrdering(t *testing.T) {
	// The paper's headline ordering on a representative app:
	// baseline-sram >> sp > sp-mr and dp-sr lowest (or close to sp-mr).
	prof := smallProfile()
	runs := map[string]RunReport{}
	for _, name := range []string{"baseline-sram", "sp", "sp-mr", "dp-sr"} {
		cfg, err := MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(nil, cfg, prof, 21, 0, 100000, sample.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		runs[name] = rep
	}
	base := runs["baseline-sram"].L2EnergyJ()
	if runs["sp"].L2EnergyJ() >= base {
		t.Fatalf("SP energy %g not below baseline %g", runs["sp"].L2EnergyJ(), base)
	}
	if runs["sp-mr"].L2EnergyJ() >= runs["sp"].L2EnergyJ() {
		t.Fatalf("SP-MR energy %g not below SP %g", runs["sp-mr"].L2EnergyJ(), runs["sp"].L2EnergyJ())
	}
	if runs["dp-sr"].L2EnergyJ() >= runs["sp"].L2EnergyJ() {
		t.Fatalf("DP-SR energy %g not below SP %g", runs["dp-sr"].L2EnergyJ(), runs["sp"].L2EnergyJ())
	}
}

func TestRunTraceWithSlice(t *testing.T) {
	m, err := Build(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Access{
		{Addr: 0x1000, Op: trace.Load, Domain: trace.User},
		{Addr: 0x1000, Op: trace.Load, Domain: trace.User},
	}
	rep := RunTrace(m, "slice", trace.NewSliceSource(recs), 0)
	if rep.CPU.Accesses != 2 {
		t.Fatalf("accesses = %d", rep.CPU.Accesses)
	}
}
