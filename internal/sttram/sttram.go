// Package sttram models the volatility of relaxed-retention STT-RAM
// cache arrays and the refresh machinery that keeps them correct.
//
// Lowering an STT-RAM cell's thermal stability shortens its retention
// time in exchange for cheaper, faster writes — the knob the paper
// turns per cache segment. A line whose cells have not been rewritten
// within the retention time loses its data, so a short-retention array
// needs a policy:
//
//   - PeriodicAll rewrites every valid line each scan (DRAM-style
//     refresh): no expiry ever, maximal refresh energy.
//   - DirtyOnly refreshes only dirty lines; clean lines are allowed to
//     expire (they can be re-fetched from DRAM), trading refresh energy
//     for occasional extra misses.
//   - EagerWriteback refreshes nothing: dirty lines nearing expiry are
//     written back to DRAM and marked clean, and expired lines are
//     invalidated. Cheapest in refresh energy, most extra misses.
//
// The controller scans at half the retention period, which guarantees a
// dirty line is always visited before its cells decay (a line written
// at time t is visited no later than t + retention/2). The access path
// must still consult Expired for clean lines that lapsed between scans.
//
// That guarantee assumes ideal cells. Real relaxed-retention arrays
// additionally suffer stochastic retention faults — thermal-noise /
// process-variation tail events that flip a cell long before its
// nominal retention. SetRetentionFaults injects such faults (seeded,
// per-fill, with a configurable rate), deliberately breaking the scan
// guarantee so the data-loss accounting (DirtyExpiries, FaultExpiries)
// measures what a fault-afflicted array would actually lose.
package sttram

import (
	"fmt"
	"math"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
)

// RefreshPolicy selects how a short-retention array stays correct.
type RefreshPolicy uint8

const (
	// PeriodicAll refreshes every valid line each scan.
	PeriodicAll RefreshPolicy = iota
	// DirtyOnly refreshes dirty lines; clean lines may expire.
	DirtyOnly
	// EagerWriteback writes dirty lines back instead of refreshing;
	// everything may expire.
	EagerWriteback
	numPolicies
)

// Valid reports whether p names a policy.
func (p RefreshPolicy) Valid() bool { return p < numPolicies }

// String returns the canonical name.
func (p RefreshPolicy) String() string {
	switch p {
	case PeriodicAll:
		return "periodic-all"
	case DirtyOnly:
		return "dirty-only"
	case EagerWriteback:
		return "eager-writeback"
	default:
		return fmt.Sprintf("refresh(%d)", uint8(p))
	}
}

// ParseRefreshPolicy maps a canonical name to its policy.
func ParseRefreshPolicy(name string) (RefreshPolicy, error) {
	for p := RefreshPolicy(0); p < numPolicies; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sttram: unknown refresh policy %q", name)
}

// RetentionFromStability computes retention seconds from the thermal
// stability factor delta, t = t0 * exp(delta) with attempt period t0 =
// 1ns. This is the standard magnetics relation behind the
// retention/write-energy trade-off.
func RetentionFromStability(delta float64) float64 {
	return 1e-9 * math.Exp(delta)
}

// Stats counts controller activity.
type Stats struct {
	// Scans is the number of completed refresh scans.
	Scans uint64
	// Refreshes is the number of line rewrites performed.
	Refreshes uint64
	// EagerWritebacks is the number of dirty lines written back (and
	// marked clean) to avoid refreshing them.
	EagerWritebacks uint64
	// CleanExpiries is the number of clean lines invalidated because
	// their retention lapsed (scan or access path).
	CleanExpiries uint64
	// DirtyExpiries counts dirty lines that lapsed — with a correctly
	// configured controller and no injected faults this must stay zero;
	// it is surfaced so tests and experiments can verify no silent data
	// loss occurred. Under stochastic retention faults (SetRetentionFaults)
	// a dirty line can genuinely die before the scan reaches it, and
	// this counter measures that loss.
	DirtyExpiries uint64
	// FaultExpiries counts lines invalidated before their nominal
	// (jittered) retention because an injected stochastic fault cut
	// their effective retention short. Always zero when fault injection
	// is off. Fault expiries are also counted as clean/dirty expiries.
	FaultExpiries uint64
}

// Controller manages retention for one cache array.
type Controller struct {
	c         *cache.Cache
	meter     *energy.Meter
	retention uint64
	policy    RefreshPolicy
	writeback func(addr uint64)
	nextScan  uint64
	stats     Stats
	// refreshLimit caps consecutive refreshes of an idle line (the
	// dynamic refresh scheme): once a line has been refreshed this
	// many times without being accessed, a dirty line is written back
	// and the line is left to expire. Zero means unlimited.
	refreshLimit uint32
	// jitter widens per-cell retention into a deterministic
	// pseudo-random band [retention*(1-jitter), retention]: real
	// arrays have process variation, and the weakest cell bounds a
	// line's life. Zero keeps the nominal retention for every line.
	jitter float64
	// faultBER, when positive, injects stochastic retention failures:
	// each line fill draws (deterministically from faultSeed, the
	// line's position and its write time) whether this residency
	// suffers a thermal-tail early flip, and if so when. Unlike jitter,
	// faults are per-fill and can strike long before the scan schedule
	// protects the line — the regime where the refresh controller's
	// data-loss accounting is actually exercised.
	faultBER  float64
	faultSeed uint64
}

// NewController wires retention management onto a cache. retention is
// in cycles; zero builds an inert controller (for SRAM or long-
// retention arrays). meter receives refresh energy; writeback is
// invoked for each eager writeback (may be nil).
func NewController(c *cache.Cache, meter *energy.Meter, retention uint64, policy RefreshPolicy, writeback func(addr uint64)) (*Controller, error) {
	if !policy.Valid() {
		return nil, fmt.Errorf("sttram: invalid refresh policy %d", policy)
	}
	ct := &Controller{c: c, meter: meter, retention: retention, policy: policy, writeback: writeback}
	if retention > 0 {
		ct.nextScan = ct.scanPeriod()
	}
	return ct, nil
}

// scanPeriod is half the worst-case line retention (>=1 cycle), so
// every line is visited before its cells can decay.
func (ct *Controller) scanPeriod() uint64 {
	worst := uint64(float64(ct.retention) * (1 - ct.jitter))
	p := worst / 2
	if p == 0 {
		p = 1
	}
	return p
}

// SetRefreshLimit caps consecutive idle refreshes per line (0 =
// unlimited). Lines past the cap are written back (if dirty) and
// allowed to expire instead of being refreshed forever — the paper's
// dynamic refresh scheme for short-retention arrays.
func (ct *Controller) SetRefreshLimit(n uint32) { ct.refreshLimit = n }

// SetRetentionJitter models process variation: each line's retention
// is derated deterministically (by a hash of its set/way) into
// [retention*(1-j), retention]. j is clamped to [0, 0.9]. The scan
// period conservatively follows the worst-case line.
// Call it before the first Tick: the scan schedule follows the
// worst-case line.
func (ct *Controller) SetRetentionJitter(j float64) {
	if j < 0 {
		j = 0
	}
	if j > 0.9 {
		j = 0.9
	}
	ct.jitter = j
	if ct.retention > 0 {
		ct.nextScan = ct.scanPeriod()
	}
}

// lineRetention is the effective retention of the line at (set, way).
func (ct *Controller) lineRetention(set, way int) uint64 {
	if ct.jitter == 0 {
		return ct.retention
	}
	h := uint64(set)*0x9e3779b97f4a7c15 + uint64(way)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	frac := float64(h%1024) / 1024 // uniform in [0,1)
	derate := 1 - ct.jitter*frac
	r := uint64(float64(ct.retention) * derate)
	if r == 0 {
		r = 1
	}
	return r
}

// faultTailLambda shapes the exponential thermal-tail failure time:
// a faulted residency flips at retention * Exp(1)/faultTailLambda
// (clamped into [1 cycle, nominal)), i.e. the mean early flip lands at
// 1/8 of the nominal retention — well inside the scan period, so
// faults genuinely escape the refresh schedule.
const faultTailLambda = 8.0

// SetRetentionFaults injects stochastic retention failures: with
// probability ber, a line fill's retention is cut to an exponentially
// distributed early flip time (thermal noise / process-variation tail,
// after Kuan & Adegbija's STTRAM fault analysis). Draws are a pure
// function of (seed, set, way, write time), so identical runs fault
// identically regardless of scheduling. ber is clamped to [0, 1];
// zero disables injection.
func (ct *Controller) SetRetentionFaults(ber float64, seed uint64) {
	if ber < 0 || math.IsNaN(ber) {
		ber = 0
	}
	if ber > 1 {
		ber = 1
	}
	ct.faultBER = ber
	ct.faultSeed = seed
}

// mix64 is a splitmix64 finalizer — the diffuser behind fault draws.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a hash to a uniform float64 in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// effectiveRetention is the residency's actual retention: the jittered
// per-line value, further cut short when this (set, way, writtenAt)
// residency drew an injected fault.
func (ct *Controller) effectiveRetention(set, way int, writtenAt uint64) uint64 {
	r := ct.lineRetention(set, way)
	if ct.faultBER == 0 {
		return r
	}
	h := mix64(ct.faultSeed ^ (uint64(set)*0x9e3779b97f4a7c15 + uint64(way)*0xbf58476d1ce4e5b9 + writtenAt*0x2545f4914f6cdd1d))
	if unit(h) >= ct.faultBER {
		return r
	}
	// Faulted: exponential early flip, clamped below the nominal value
	// so a fault is always an *early* expiry.
	frac := -math.Log(1-unit(mix64(h))) / faultTailLambda
	fr := uint64(float64(r) * frac)
	if fr >= r {
		fr = r - 1
	}
	if fr == 0 {
		fr = 1
	}
	return fr
}

// Stats exposes the counters; treat as read-only.
func (ct *Controller) Stats() *Stats { return &ct.stats }

// CanExpire reports whether lines in this array can ever lose data —
// false for unbounded-retention technologies (SRAM), where Tick and
// Expired are no-ops. The access hot path uses this to skip the
// per-access expiry bookkeeping entirely.
func (ct *Controller) CanExpire() bool { return ct.retention != 0 }

// Expired reports whether the line at (set, way) has outlived its
// retention at time now. Inert controllers never report expiry.
func (ct *Controller) Expired(set, way int, now uint64) bool {
	if ct.retention == 0 {
		return false
	}
	meta := ct.c.Meta(set, way)
	if meta == nil {
		return false
	}
	return now-meta.WrittenAt >= ct.effectiveRetention(set, way, meta.WrittenAt)
}

// HandleExpired invalidates an expired line found on the access path,
// accounting it as clean or dirty expiry. It returns whether the line
// was dirty (indicating data loss the configuration failed to prevent).
// An expiry arriving before the line's nominal (jittered) retention can
// only come from an injected fault and is additionally counted as one.
func (ct *Controller) HandleExpired(set, way int, now uint64) bool {
	faulted := false
	if ct.faultBER > 0 {
		if meta := ct.c.Meta(set, way); meta != nil {
			faulted = now-meta.WrittenAt < ct.lineRetention(set, way)
		}
	}
	dirty, _, ok := ct.c.MarkExpired(set, way, now)
	if !ok {
		return false
	}
	if faulted {
		ct.stats.FaultExpiries++
	}
	if dirty {
		ct.stats.DirtyExpiries++
	} else {
		ct.stats.CleanExpiries++
	}
	return dirty
}

// Tick runs any refresh scans due at time now. The caller invokes it
// before using the array at a new timestamp; several overdue scans
// collapse into the sequence they would have formed.
func (ct *Controller) Tick(now uint64) {
	if ct.retention == 0 {
		return
	}
	for ct.nextScan <= now {
		ct.scan(ct.nextScan)
		ct.nextScan += ct.scanPeriod()
	}
}

// scan visits every valid line and applies the policy at scan time t.
func (ct *Controller) scan(t uint64) {
	ct.stats.Scans++
	type action struct {
		set, way int
		kind     uint8 // 0 refresh, 1 eager-writeback, 2 expire
	}
	var acts []action
	ct.c.VisitValid(func(set, way int, meta *cache.BlockMeta) {
		age := t - meta.WrittenAt
		if age >= ct.effectiveRetention(set, way, meta.WrittenAt) {
			// Already lapsed; the data is gone whatever the policy.
			acts = append(acts, action{set, way, 2})
			return
		}
		// Lines younger than a scan period will be visited again
		// before they can expire; leave them alone. (An injected fault
		// can still strike inside this window — the next scan or the
		// access path will find the corpse.)
		if age < ct.scanPeriod() {
			return
		}
		// Dynamic refresh scheme: an idle line past the refresh cap is
		// written back (if dirty) instead of being refreshed again.
		capped := ct.refreshLimit > 0 && meta.RefreshCount >= ct.refreshLimit
		switch ct.policy {
		case PeriodicAll:
			if capped {
				if meta.Dirty {
					acts = append(acts, action{set, way, 1})
				}
			} else {
				acts = append(acts, action{set, way, 0})
			}
		case DirtyOnly:
			if meta.Dirty {
				if capped {
					acts = append(acts, action{set, way, 1})
				} else {
					acts = append(acts, action{set, way, 0})
				}
			}
			// Clean lines ride toward expiry; the access path or the
			// next scan will drop them.
		case EagerWriteback:
			if meta.Dirty {
				acts = append(acts, action{set, way, 1})
			}
		}
	})
	for _, a := range acts {
		switch a.kind {
		case 0:
			if ct.c.Rewrite(a.set, a.way, t) {
				ct.stats.Refreshes++
				if ct.meter != nil {
					ct.meter.Refresh(1)
				}
			}
		case 1:
			meta := ct.c.Meta(a.set, a.way)
			if meta == nil || !meta.Dirty {
				continue
			}
			addr := meta.Addr
			meta.Dirty = false
			// The array cells are not rewritten: the line keeps aging
			// and will expire as a clean line. Reading it out for the
			// writeback costs one array read.
			ct.stats.EagerWritebacks++
			if ct.meter != nil {
				ct.meter.Read(1)
			}
			if ct.writeback != nil {
				ct.writeback(addr)
			}
		case 2:
			ct.HandleExpired(a.set, a.way, t)
		}
	}
}

// refreshPowerEstimate returns the steady-state refresh power (watts)
// of an array with the given valid-line count under PeriodicAll: each
// line costs one read+write per scan period.
func refreshPowerEstimate(p energy.Params, validLines int) float64 {
	if p.RetentionCycles == 0 || validLines == 0 {
		return 0
	}
	period := energy.Seconds(p.RetentionCycles / 2)
	if period <= 0 {
		return 0
	}
	perScan := float64(validLines) * (p.ReadPJ + p.WritePJ) * 1e-12
	return perScan / period
}

// DomainFor suggests the retention class for a segment given its
// measured write-interval behaviour: arrays whose lines are rewritten
// (or die) well inside a candidate retention need no stronger class.
// It returns the cheapest-write technology whose retention, with the
// controller's half-period scanning, keeps expected expiries below
// maxExpiryFrac of fills. lifetimes is the segment's block-lifetime
// histogram in cycles.
func DomainFor(lifetimes *cache.Log2Hist, maxExpiryFrac float64) energy.Tech {
	for _, t := range []energy.Tech{energy.STTShort, energy.STTMedium} {
		p := energy.DefaultParams(t)
		// Fraction of blocks living beyond the retention window.
		exp := bitsLenU64(p.RetentionCycles)
		surviving := 1 - lifetimes.CDFBelow(exp)
		if surviving <= maxExpiryFrac {
			return t
		}
	}
	return energy.STTLong
}

func bitsLenU64(x uint64) int {
	n := 0
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}
