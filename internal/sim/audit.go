package sim

import (
	"sync/atomic"

	"mobilecache/internal/invariant"
)

// This file wires the invariant auditor (internal/invariant) into the
// run entry points. Every report Run and RunSampledTrace return is
// checked against the simulator's conservation laws, and a report that
// breaks one fails its run with a structured *invariant.Error, which
// internal/runner records in the failure manifest. The check is always
// on: a miscounted report is a simulator bug, never a result.

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

// Audit checks one report against the conservation invariants. It is
// the check auditExit applies, exposed for callers that replay through
// the raw RunTrace and audit the report themselves.
func Audit(rep RunReport) []invariant.Violation {
	return invariant.Auditor{}.Check(auditView(rep))
}

// auditExit audits a finished report and returns it, or a structured
// *invariant.Error when it violates an invariant. It is the single
// exit gate of Run and RunSampledTrace.
func auditExit(rep RunReport) (RunReport, error) {
	if t := auditTamper.Load(); t != nil {
		(*t)(&rep)
	}
	if vs := Audit(rep); len(vs) != 0 {
		return rep, &invariant.Error{Machine: rep.Machine, Workload: rep.Workload, Violation: vs}
	}
	return rep, nil
}
