package experiments

import (
	"testing"

	"mobilecache/internal/invariant"
	"mobilecache/internal/sim"
)

// TestGoldenAuditQuickMatrix is the CI golden-audit gate: the full
// 7-machine x 3-app quick matrix must come back conservation-clean
// under strict audit. Any miscounted counter anywhere in the
// simulator fails this test with the exact violated invariant.
func TestGoldenAuditQuickMatrix(t *testing.T) {
	restore := sim.SetAuditMode(invariant.ModeStrict)
	t.Cleanup(restore)

	opts := quickOptions()
	reports, err := matrix(opts, sim.StandardMachineNames())
	if err != nil {
		t.Fatalf("quick matrix failed under strict audit: %v", err)
	}
	// Strict mode already failed the run on any violation; belt and
	// braces, re-audit every report explicitly so the test also covers
	// the Audit entry point experiments use.
	n := 0
	for machine, byApp := range reports {
		for app, rep := range byApp {
			if vs := sim.Audit(rep); len(vs) != 0 {
				t.Errorf("%s/%s: %v", machine, app, vs)
			}
			n++
		}
	}
	if want := len(sim.StandardMachineNames()) * len(opts.Apps); n != want {
		t.Fatalf("audited %d reports, want %d", n, want)
	}
}
