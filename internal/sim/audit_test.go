package sim

import (
	"errors"
	"strings"
	"testing"

	"mobilecache/internal/invariant"
	"mobilecache/internal/sample"
	"mobilecache/internal/workload"
)

// TestStrictAuditCleanAcrossMachines runs every standard machine under
// strict audit: a violation here means the simulator itself miscounts.
func TestStrictAuditCleanAcrossMachines(t *testing.T) {
	restore := SetAuditMode(invariant.ModeStrict)
	t.Cleanup(restore)
	apps := workload.Profiles()
	for _, cfg := range StandardMachines() {
		for _, prof := range apps[:2] {
			rep, err := Run(nil, cfg, prof, 7, 0, 30_000, sample.Spec{})
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, prof.Name, err)
			}
			if rep.L2.TotalAccesses() == 0 {
				t.Fatalf("%s/%s: empty run", cfg.Name, prof.Name)
			}
		}
	}
}

// TestStrictAuditCleanWarm covers the warm (counter-diff) path, whose
// windowed reports must satisfy the same conservation laws.
func TestStrictAuditCleanWarm(t *testing.T) {
	restore := SetAuditMode(invariant.ModeStrict)
	t.Cleanup(restore)
	apps := workload.Profiles()
	for _, name := range []string{"baseline-stt", "dp-sr", "sp-mr"} {
		cfg, err := MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(nil, cfg, apps[0], 11, 10_000, 20_000, sample.Spec{}); err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
	}
}

// TestStrictAuditCatchesTamperedReport proves the end-to-end promise:
// a miscounted report surfaces as a structured *invariant.Error.
func TestStrictAuditCatchesTamperedReport(t *testing.T) {
	restore := SetAuditMode(invariant.ModeStrict)
	t.Cleanup(restore)
	restoreTamper := SetAuditTamper(func(r *RunReport) {
		r.L2.Hits[0]++ // break accesses = hits + misses
	})
	t.Cleanup(restoreTamper)

	cfg, err := MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(nil, cfg, workload.Profiles()[0], 1, 0, 5_000, sample.Spec{})
	if err == nil {
		t.Fatal("tampered report passed strict audit")
	}
	var ie *invariant.Error
	if !errors.As(err, &ie) {
		t.Fatalf("error type %T, want *invariant.Error", err)
	}
	var hook interface{ InvariantViolations() []string }
	if !errors.As(err, &hook) || len(hook.InvariantViolations()) == 0 {
		t.Fatalf("no structured violations on %v", err)
	}
	if !strings.Contains(hook.InvariantViolations()[0], "l2.conservation") {
		t.Fatalf("unexpected violation: %v", hook.InvariantViolations())
	}
}

// TestAuditOffSkipsTamper: off mode must not even look at the report.
func TestAuditOffSkipsTamper(t *testing.T) {
	restore := SetAuditMode(invariant.ModeOff)
	t.Cleanup(restore)
	restoreTamper := SetAuditTamper(func(r *RunReport) { r.DRAMWrites += 99 })
	t.Cleanup(restoreTamper)

	cfg, err := MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, cfg, workload.Profiles()[0], 1, 0, 5_000, sample.Spec{}); err != nil {
		t.Fatalf("off mode failed a run: %v", err)
	}
}

// TestAuditWarnDoesNotFail: warn mode logs but returns the report.
func TestAuditWarnDoesNotFail(t *testing.T) {
	restore := SetAuditMode(invariant.ModeWarn)
	t.Cleanup(restore)
	restoreTamper := SetAuditTamper(func(r *RunReport) { r.DRAMReads = ^uint64(0) })
	t.Cleanup(restoreTamper)

	before := warnLogged.Load()
	cfg, err := MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, cfg, workload.Profiles()[0], 1, 0, 5_000, sample.Spec{}); err != nil {
		t.Fatalf("warn mode failed a run: %v", err)
	}
	if warnLogged.Load() != before+1 {
		t.Fatalf("warn counter did not advance: %d -> %d", before, warnLogged.Load())
	}
}
