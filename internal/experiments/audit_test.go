package experiments

import (
	"strings"
	"testing"

	"mobilecache/internal/engine"
	"mobilecache/internal/sim"
	"mobilecache/internal/workload"
)

// TestGoldenAuditQuickMatrix is the CI golden-audit gate: the full
// 7-machine x 3-app quick matrix must come back conservation-clean.
// Any miscounted counter anywhere in the simulator fails this test
// with the exact violated invariant.
func TestGoldenAuditQuickMatrix(t *testing.T) {
	opts := quickOptions()
	reports, err := matrix(opts, sim.StandardMachineNames())
	if err != nil {
		t.Fatalf("quick matrix failed the audit: %v", err)
	}
	// Every run was already audited on its way out; belt and braces,
	// re-audit every report explicitly so the test also covers the
	// Audit entry point.
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

// TestHandBuiltRunsAudited: the experiments that build or inspect a
// machine themselves replay outside the engine, and their reports are
// audited all the same. With every report miscounted, each must fail
// with the violated invariant rather than print a figure.
func TestHandBuiltRunsAudited(t *testing.T) {
	run := func(id string) error {
		_, err := Run(id, Options{
			Accesses: 20_000, Seed: 1, Apps: workload.Profiles()[:1],
			Engine: engine.New(engine.Config{}),
		})
		return err
	}
	t.Cleanup(sim.SetAuditTamper(func(r *sim.RunReport) { r.L2.Hits[0]++ }))
	for _, id := range []string{"E3", "E4", "E9", "E10", "E11", "E20"} {
		if err := run(id); err == nil || !strings.Contains(err.Error(), "l2.conservation") {
			t.Errorf("%s under a miscounting tamper returned %v, want an l2.conservation violation", id, err)
		}
	}

	// E20 runs its engine cells first, and those already fail above;
	// miscount only its hand-built set- and way-partition machines to
	// see that their rows are audited too.
	t.Cleanup(sim.SetAuditTamper(func(r *sim.RunReport) {
		if r.Machine == "setpart" || r.Machine == "waypart" {
			r.L2.Hits[0]++
		}
	}))
	if err := run("E20"); err == nil || !strings.Contains(err.Error(), "setpart") {
		t.Errorf("E20 with its set partition miscounted returned %v, want a violation naming setpart", err)
	}
}
