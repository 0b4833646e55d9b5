package sim

import (
	"log"
	"sync/atomic"

	"mobilecache/internal/invariant"
)

// This file wires the invariant auditor (internal/invariant) into the
// run entry points. Every report Run and RunSampledTrace return is
// checked against the simulator's conservation laws:
//
//   - off:    no checking
//   - warn:   violations are logged (rate-capped) and the run proceeds
//   - strict: violations become a structured *invariant.Error, which
//     internal/runner records in the failure manifest
//
// The default is warn — a miscounting simulator should never fail
// silently, but library users shouldn't see hard failures they didn't
// opt into. CLI flags (-audit on mcsweep/mcbench/mcsim/mcserved) select
// the mode.

// auditMode holds the active mode (stored as uint32 for atomicity).
var auditMode atomic.Uint32

func init() { auditMode.Store(uint32(invariant.ModeWarn)) }

// SetAuditMode selects how workload runs react to invariant
// violations and returns a restore function. The mode is
// process-global (it guards the simulator itself, not one run);
// tests must call the restore function, typically via t.Cleanup.
func SetAuditMode(m invariant.Mode) (restore func()) {
	prev := auditMode.Swap(uint32(m))
	return func() { auditMode.Store(prev) }
}

// auditTamper, when set, mutates reports before they are audited. It
// exists so tests (and the golden-audit CI step) can prove a
// miscounted report is actually caught end to end — there is no
// legitimate production use.
var auditTamper atomic.Pointer[func(*RunReport)]

// SetAuditTamper installs a report mutator applied before auditing,
// returning a restore function. Test-only.
func SetAuditTamper(f func(*RunReport)) (restore func()) {
	var p *func(*RunReport)
	if f != nil {
		p = &f
	}
	prev := auditTamper.Swap(p)
	return func() { auditTamper.Store(prev) }
}

// auditView flattens a RunReport into the auditor's subject type.
func auditView(rep RunReport) invariant.Report {
	return invariant.Report{
		Machine:          rep.Machine,
		Workload:         rep.Workload,
		CPU:              rep.CPU,
		L2:               rep.L2,
		Energy:           rep.Energy,
		L2InstalledBytes: rep.L2InstalledBytes,
		L2PoweredBytes:   rep.L2PoweredBytes,
		DRAMReads:        rep.DRAMReads,
		DRAMWrites:       rep.DRAMWrites,
		FlushWritebacks:  rep.FlushWritebacks,
		SampleFactor:     rep.SampleFactor,
	}
}

// Audit checks one report against the conservation invariants,
// regardless of the active mode. Experiments use it for golden-audit
// assertions.
func Audit(rep RunReport) []invariant.Violation {
	return invariant.Auditor{}.Check(auditView(rep))
}

// warnLogged caps warn-mode log spam: after warnLogCap violating
// reports the audit keeps counting but stops printing.
var warnLogged atomic.Uint64

const warnLogCap = 8

// auditExit runs the active audit policy on a finished report. It is
// the single exit gate of Run and RunSampledTrace.
func auditExit(rep RunReport) (RunReport, error) {
	if t := auditTamper.Load(); t != nil {
		(*t)(&rep)
	}
	mode := invariant.Mode(auditMode.Load())
	if mode == invariant.ModeOff {
		return rep, nil
	}
	vs := Audit(rep)
	if len(vs) == 0 {
		return rep, nil
	}
	if mode == invariant.ModeStrict {
		return rep, &invariant.Error{Machine: rep.Machine, Workload: rep.Workload, Violation: vs}
	}
	if n := warnLogged.Add(1); n <= warnLogCap {
		for _, v := range vs {
			log.Printf("invariant audit [warn]: %s/%s: %s", rep.Machine, rep.Workload, v)
		}
		if n == warnLogCap {
			log.Printf("invariant audit [warn]: %d violating reports seen; further warnings suppressed", n)
		}
	}
	return rep, nil
}
