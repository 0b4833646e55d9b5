package invariant

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mobilecache/internal/cpu"
	"mobilecache/internal/energy"
	"mobilecache/internal/mem"
	"mobilecache/internal/trace"
)

// cleanReport builds a report satisfying every invariant; each test
// mutates one counter off it.
func cleanReport() Report {
	var r Report
	r.Machine = "stt-base"
	r.Workload = "browser"

	r.L2.Accesses[trace.User], r.L2.Hits[trace.User], r.L2.Misses[trace.User] = 100, 70, 30
	r.L2.Accesses[trace.Kernel], r.L2.Hits[trace.Kernel], r.L2.Misses[trace.Kernel] = 50, 40, 10
	r.L2.ExpiryInvalidations = 4
	r.L2.CleanExpiries = 3
	r.L2.DirtyExpiries = 1
	r.L2.FaultExpiries = 2
	r.L2.Evictions = 20
	r.L2.InterferenceEvictions = 5
	r.L2.Writebacks = 10
	r.L2.EagerWritebacks = 3
	r.L2.Refreshes = 5
	r.FlushWritebacks = 2

	r.DRAMReads = 35                                    // <= 40 misses
	r.DRAMWrites = r.L2.Writebacks - 1 + 3              // writebacks - dirty expiries + eager
	r.L2InstalledBytes, r.L2PoweredBytes = 1<<20, 1<<19 // half powered

	r.CPU = cpu.Result{
		Instructions: 150,
		Cycles:       400,
		Accesses:     150,
		StallCycles:  100,
	}
	r.CPU.CyclesByDomain[trace.User] = 300
	r.CPU.CyclesByDomain[trace.Kernel] = 100

	r.Energy = mem.EnergyReport{
		L1I:   energy.Breakdown{ReadJ: 1e-6, WriteJ: 1e-7, LeakageJ: 1e-8},
		L1D:   energy.Breakdown{ReadJ: 2e-6, WriteJ: 2e-7, LeakageJ: 2e-8},
		L2:    energy.Breakdown{ReadJ: 3e-6, WriteJ: 3e-7, LeakageJ: 3e-8, RefreshJ: 1e-9},
		DRAMJ: 5e-6,
	}
	return r
}

func TestCleanReportPasses(t *testing.T) {
	var a Auditor
	if vs := a.Check(cleanReport()); len(vs) != 0 {
		t.Fatalf("clean report flagged: %v", vs)
	}
}

// TestEachMiscountCaught injects one counter error at a time and
// asserts the auditor flags exactly the invariant that should break
// (some injections legitimately cascade into dependent checks, so we
// require the named check to be present, not alone).
func TestEachMiscountCaught(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"lost-user-hit", func(r *Report) { r.L2.Hits[trace.User]-- }, "l2.conservation.user"},
		{"extra-kernel-miss", func(r *Report) { r.L2.Misses[trace.Kernel]++ }, "l2.conservation.kernel"},
		{"unsplit-expiry", func(r *Report) { r.L2.CleanExpiries-- }, "l2.expiry.split"},
		{"phantom-fault-expiry", func(r *Report) { r.L2.FaultExpiries = 9 }, "l2.expiry.faults"},
		{"eviction-overflow", func(r *Report) { r.L2.Evictions = 100 }, "l2.evictions.bound"},
		{"writeback-overflow", func(r *Report) { r.L2.Writebacks = 30; r.DRAMWrites = 32 }, "l2.writebacks.bound"},
		{"flush-overflow", func(r *Report) { r.FlushWritebacks = 11; r.DRAMWrites = 12 }, "l2.flush.bound"},
		{"interference-overflow", func(r *Report) { r.L2.InterferenceEvictions = 21 }, "l2.interference.bound"},
		{"dram-read-overflow", func(r *Report) { r.DRAMReads = 41 }, "dram.reads.bound"},
		{"dram-write-leak", func(r *Report) { r.DRAMWrites++ }, "dram.writes.conservation"},
		{"dirty-expiry-underflow", func(r *Report) {
			r.L2.DirtyExpiries = 20
			r.L2.CleanExpiries = 0
			r.L2.ExpiryInvalidations = 20
		}, "l2.expiry.dirty.bound"},
		{"unattributed-cycles", func(r *Report) { r.CPU.CyclesByDomain[trace.User]-- }, "cpu.cycles.attribution"},
		{"stall-overflow", func(r *Report) {
			r.CPU.StallCycles = 500
		}, "cpu.stalls.bound"},
		{"impossible-speed", func(r *Report) {
			r.CPU.Cycles = 100
			r.CPU.CyclesByDomain[trace.User] = 50
			r.CPU.CyclesByDomain[trace.Kernel] = 50
			r.CPU.StallCycles = 10
		}, "cpu.cycles.bound"},
		{"nan-energy", func(r *Report) { r.Energy.L2.ReadJ = math.NaN() }, "energy.l2.read"},
		{"negative-energy", func(r *Report) { r.Energy.L1D.LeakageJ = -1e-9 }, "energy.l1d.leakage"},
		{"inf-dram-energy", func(r *Report) { r.Energy.DRAMJ = math.Inf(1) }, "energy.dram"},
		{"phantom-refresh", func(r *Report) { r.L2.Refreshes = 0 }, "energy.refresh.phantom"},
		{"missing-refresh", func(r *Report) { r.Energy.L2.RefreshJ = 0 }, "energy.refresh.missing"},
		{"overpowered", func(r *Report) { r.L2PoweredBytes = r.L2InstalledBytes + 1 }, "l2.capacity.powered"},
	}
	var a Auditor
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := cleanReport()
			tc.mutate(&r)
			vs := a.Check(r)
			found := false
			for _, v := range vs {
				if v.Check == tc.want {
					found = true
				}
			}
			if !found {
				t.Fatalf("miscount not caught: want %q among %v", tc.want, vs)
			}
		})
	}
}

func TestErrorShape(t *testing.T) {
	r := cleanReport()
	r.L2.Hits[trace.User]-- // one violation
	var a Auditor
	vs := a.Check(r)
	if len(vs) == 0 {
		t.Fatal("violating report produced no violation")
	}
	// The error the audit returns (sim.auditExit).
	var err error = &Error{Machine: r.Machine, Workload: r.Workload, Violation: vs}
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatalf("error type %T, want *invariant.Error", err)
	}
	if ie.Machine != "stt-base" || ie.Workload != "browser" {
		t.Fatalf("error identity %q/%q", ie.Machine, ie.Workload)
	}
	// The duck-typed hook internal/runner uses to extract violations.
	var hook interface{ InvariantViolations() []string }
	if !errors.As(err, &hook) {
		t.Fatal("error does not expose InvariantViolations")
	}
	got := hook.InvariantViolations()
	if len(got) != 1 || !strings.Contains(got[0], "l2.conservation.user") {
		t.Fatalf("violations = %v", got)
	}
	if !strings.Contains(err.Error(), "stt-base/browser") {
		t.Fatalf("error text lacks run identity: %q", err.Error())
	}
}

func TestSampleFactorCheck(t *testing.T) {
	r := cleanReport()
	for _, ok := range []int{0, 1, 2, 8, 128} {
		r.SampleFactor = ok
		if vs := (Auditor{}).Check(r); len(vs) != 0 {
			t.Errorf("factor %d: unexpected violations %v", ok, vs)
		}
	}
	for _, bad := range []int{-1, 3, 6, 100} {
		r.SampleFactor = bad
		vs := (Auditor{}).Check(r)
		found := false
		for _, v := range vs {
			if v.Check == "sample.factor" {
				found = true
			}
		}
		if !found {
			t.Errorf("factor %d: sample.factor violation not reported (got %v)", bad, vs)
		}
	}
}
