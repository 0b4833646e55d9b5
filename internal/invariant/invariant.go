// Package invariant is the simulator's runtime self-check: an auditor
// that walks finished run reports and verifies the conservation laws
// the paper's energy and performance claims rest on — every access is
// a hit or a miss, every expiry is accounted exactly once, DRAM
// traffic is bounded by the cache events that cause it, and every
// energy bucket is finite and non-negative. The checks encode the
// *actual* counter semantics of internal/cache, internal/sttram and
// internal/mem (several are strict equalities), so a violating report
// means the simulator miscounted, not that the workload was unusual.
//
// The auditor sees only the uniform counters in a report, so it works
// identically for cold and warm (counter-diff) measurements and for
// every L2 organization, including fault-injected STT-RAM runs.
package invariant

import (
	"fmt"
	"math"
	"strings"

	"mobilecache/internal/core"
	"mobilecache/internal/cpu"
	"mobilecache/internal/energy"
	"mobilecache/internal/mem"
	"mobilecache/internal/trace"
)

// Mode selects how run paths react to a violating report.
type Mode uint8

const (
	// ModeOff disables auditing entirely.
	ModeOff Mode = iota
	// ModeWarn audits and logs violations without failing the run.
	ModeWarn
	// ModeStrict audits and turns violations into a structured *Error,
	// which parallel sweeps surface through the failure manifest.
	ModeStrict
	numModes
)

// String returns the canonical flag spelling.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeWarn:
		return "warn"
	case ModeStrict:
		return "strict"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ParseMode maps a flag value to its Mode.
func ParseMode(s string) (Mode, error) {
	for m := Mode(0); m < numModes; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("invariant: unknown audit mode %q (want off, warn or strict)", s)
}

// Report is the auditable view of one finished simulation — a flat
// mirror of sim.RunReport's counters. It lives here rather than using
// sim.RunReport directly so internal/sim can import the auditor
// without a cycle.
type Report struct {
	Machine  string
	Workload string

	CPU    cpu.Result
	L2     core.L2Stats
	Energy mem.EnergyReport

	L2InstalledBytes uint64
	L2PoweredBytes   uint64
	DRAMReads        uint64
	DRAMWrites       uint64
	FlushWritebacks  uint64

	// SampleFactor marks a set-sampled run's report (the sampling
	// denominator; 0 or 1 = exact full simulation). Sampled raw
	// counters obey every conservation law an exact run does — the
	// simulated subset is a complete machine — and uniform scaling
	// preserves the identities, so the only sampled-specific check is
	// that the factor itself is well-formed.
	SampleFactor int
}

// Violation names one broken invariant in one report.
type Violation struct {
	// Check is the stable identifier of the invariant (for tests and
	// tooling), e.g. "l2.conservation.user".
	Check string
	// Detail states the violated relation with its observed numbers.
	Detail string
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// Error is the structured failure a strict audit attaches to a run; it
// flows through internal/runner's RunError into the failure manifest.
type Error struct {
	Machine   string
	Workload  string
	Violation []Violation
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("invariant audit: %s/%s violates %d invariant(s): %s",
		e.Machine, e.Workload, len(e.Violation), e.summary())
}

func (e *Error) summary() string {
	var b strings.Builder
	for i, v := range e.Violation {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// InvariantViolations exposes the violations without importing this
// package — internal/runner detects audit failures through this
// interface method when building manifests.
func (e *Error) InvariantViolations() []string {
	out := make([]string, len(e.Violation))
	for i, v := range e.Violation {
		out[i] = v.String()
	}
	return out
}

// Auditor checks reports against the simulator's conservation laws.
// The zero value is ready to use.
type Auditor struct {
	// RelTol is the relative tolerance for floating-point identities;
	// zero selects 1e-9. Counter identities are exact and never use it.
	RelTol float64
}

func (a Auditor) tol() float64 {
	if a.RelTol > 0 {
		return a.RelTol
	}
	return 1e-9
}

// Check audits one report and returns every violated invariant (empty
// for a clean report). It never panics, whatever the report holds —
// fuzzed, corrupt and adversarial reports only yield violations.
func (a Auditor) Check(r Report) []Violation {
	var vs []Violation
	add := func(check, format string, args ...any) {
		vs = append(vs, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
	}

	// --- sampled-mode well-formedness ---
	if f := r.SampleFactor; f < 0 || (f > 0 && f&(f-1) != 0) {
		add("sample.factor", "sampling factor %d is not a positive power of two", f)
	}

	// --- cache conservation: accesses = hits + misses, per domain ---
	domains := [...]struct {
		name string
		d    trace.Domain
	}{{"user", trace.User}, {"kernel", trace.Kernel}}
	for _, dom := range domains {
		acc, hit, miss := r.L2.Accesses[dom.d], r.L2.Hits[dom.d], r.L2.Misses[dom.d]
		if hit+miss != acc {
			add("l2.conservation."+dom.name,
				"hits %d + misses %d != accesses %d", hit, miss, acc)
		}
	}

	// --- expiry accounting (exact: each expired line is counted once
	// in the cache and once, as clean or dirty, in the controller) ---
	if r.L2.CleanExpiries+r.L2.DirtyExpiries != r.L2.ExpiryInvalidations {
		add("l2.expiry.split",
			"clean %d + dirty %d expiries != expiry invalidations %d",
			r.L2.CleanExpiries, r.L2.DirtyExpiries, r.L2.ExpiryInvalidations)
	}
	// Fault expiries are a cause-attribution subset of all expiries.
	if r.L2.FaultExpiries > r.L2.CleanExpiries+r.L2.DirtyExpiries {
		add("l2.expiry.faults",
			"fault expiries %d exceed total expiries %d (a fault must surface as a clean or dirty expiry)",
			r.L2.FaultExpiries, r.L2.CleanExpiries+r.L2.DirtyExpiries)
	}

	// --- eviction bounds: every eviction is caused by a fill (which
	// was a counted miss in the same window) or a retention expiry ---
	if r.L2.Evictions > r.L2.TotalMisses()+r.L2.ExpiryInvalidations {
		add("l2.evictions.bound",
			"evictions %d exceed misses %d + expiries %d",
			r.L2.Evictions, r.L2.TotalMisses(), r.L2.ExpiryInvalidations)
	}
	// Writebacks come from dirty evictions or repartition flushes.
	if r.L2.Writebacks > r.L2.Evictions+r.FlushWritebacks {
		add("l2.writebacks.bound",
			"writebacks %d exceed evictions %d + flush writebacks %d",
			r.L2.Writebacks, r.L2.Evictions, r.FlushWritebacks)
	}
	if r.FlushWritebacks > r.L2.Writebacks {
		add("l2.flush.bound",
			"flush writebacks %d exceed total writebacks %d", r.FlushWritebacks, r.L2.Writebacks)
	}
	if r.L2.InterferenceEvictions > r.L2.Evictions {
		add("l2.interference.bound",
			"interference evictions %d exceed evictions %d", r.L2.InterferenceEvictions, r.L2.Evictions)
	}

	// --- DRAM traffic conservation ---
	// Demand and prefetch fills are the only DRAM readers, and each is
	// first counted as an L2 miss (L1-victim write misses allocate
	// without fetching, so <= rather than ==).
	if r.DRAMReads > r.L2.TotalMisses() {
		add("dram.reads.bound",
			"DRAM reads %d exceed L2 misses %d", r.DRAMReads, r.L2.TotalMisses())
	}
	// Exact: DRAM absorbs dirty evictions and flushes (both inside
	// Writebacks), minus dirty expiries (data lost, never written
	// back), plus eager writebacks (counted separately).
	wantWrites, underflow := dramWritesExpected(r.L2.Writebacks, r.L2.EagerWritebacks, r.L2.DirtyExpiries)
	if underflow {
		add("l2.expiry.dirty.bound",
			"dirty expiries %d exceed writebacks %d + eager writebacks %d",
			r.L2.DirtyExpiries, r.L2.Writebacks, r.L2.EagerWritebacks)
	} else if r.DRAMWrites != wantWrites {
		add("dram.writes.conservation",
			"DRAM writes %d != writebacks %d - dirty expiries %d + eager writebacks %d = %d",
			r.DRAMWrites, r.L2.Writebacks, r.L2.DirtyExpiries, r.L2.EagerWritebacks, wantWrites)
	}

	// --- CPU timing conservation ---
	var domSum uint64
	for d := 0; d < trace.NumDomains; d++ {
		domSum += r.CPU.CyclesByDomain[d]
	}
	if domSum != r.CPU.Cycles {
		add("cpu.cycles.attribution",
			"per-domain cycles sum %d != total cycles %d", domSum, r.CPU.Cycles)
	}
	if r.CPU.StallCycles > r.CPU.Cycles {
		add("cpu.stalls.bound",
			"stall cycles %d exceed total cycles %d", r.CPU.StallCycles, r.CPU.Cycles)
	}
	if r.CPU.Cycles < r.CPU.Accesses {
		add("cpu.cycles.bound",
			"cycles %d below accesses %d (every record costs at least one cycle)",
			r.CPU.Cycles, r.CPU.Accesses)
	}

	// --- energy sanity: every bucket finite and non-negative, refresh
	// energy present exactly when refreshes happened ---
	a.checkBreakdown(&vs, "energy.l1i", r.Energy.L1I)
	a.checkBreakdown(&vs, "energy.l1d", r.Energy.L1D)
	a.checkBreakdown(&vs, "energy.l2", r.Energy.L2)
	if !finiteNonNeg(r.Energy.DRAMJ) {
		add("energy.dram", "DRAM energy %g is negative or non-finite", r.Energy.DRAMJ)
	}
	total := r.Energy.TotalJ()
	sum := r.Energy.L1I.Total() + r.Energy.L1D.Total() + r.Energy.L2.Total() + r.Energy.DRAMJ
	if !approxEqual(total, sum, a.tol()) {
		add("energy.total", "hierarchy total %g != component sum %g", total, sum)
	}
	if r.L2.Refreshes == 0 && r.Energy.L2.RefreshJ > 0 {
		add("energy.refresh.phantom",
			"refresh energy %g J with zero refreshes", r.Energy.L2.RefreshJ)
	}
	if r.L2.Refreshes > 0 && r.Energy.L2.RefreshJ <= 0 {
		add("energy.refresh.missing",
			"%d refreshes but refresh energy %g J", r.L2.Refreshes, r.Energy.L2.RefreshJ)
	}

	// --- capacity ---
	if r.L2PoweredBytes > r.L2InstalledBytes {
		add("l2.capacity.powered",
			"powered bytes %d exceed installed bytes %d", r.L2PoweredBytes, r.L2InstalledBytes)
	}
	return vs
}

// dramWritesExpected computes writebacks - dirtyExpiries +
// eagerWritebacks without unsigned underflow; underflow itself is a
// (reported) violation.
func dramWritesExpected(writebacks, eager, dirtyExpiries uint64) (want uint64, underflow bool) {
	if writebacks+eager < dirtyExpiries {
		return 0, true
	}
	return writebacks + eager - dirtyExpiries, false
}

// checkBreakdown flags any negative or non-finite energy bucket.
func (a Auditor) checkBreakdown(vs *[]Violation, check string, b energy.Breakdown) {
	buckets := [...]struct {
		name string
		val  float64
	}{{"read", b.ReadJ}, {"write", b.WriteJ}, {"leakage", b.LeakageJ}, {"refresh", b.RefreshJ}}
	for _, bk := range buckets {
		if !finiteNonNeg(bk.val) {
			*vs = append(*vs, Violation{
				Check:  check + "." + bk.name,
				Detail: fmt.Sprintf("%s energy %g J is negative or non-finite", bk.name, bk.val),
			})
		}
	}
}

func finiteNonNeg(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0
}

// approxEqual compares within relative tolerance (absolute near zero).
func approxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff <= tol*scale
}
