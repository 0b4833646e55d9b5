// Package core implements the paper's contribution: the three L2 cache
// organizations it proposes and compares for mobile SoCs.
//
//   - Unified: the conventional shared L2 (baseline), in SRAM or any
//     STT-RAM class.
//   - StaticPartition: two physically separate segments reachable only
//     by user and kernel accesses respectively; segment sizes may sum
//     to less than the baseline (the shrink that saves energy), and
//     each segment picks its own technology (multi-retention STT-RAM).
//   - DynamicPartition: a single way-partitioned array whose
//     user/kernel way allocation is recomputed every epoch from shadow
//     tag monitors; ways not needed to hold the miss rate are power
//     gated, minimizing powered capacity online.
//
// All organizations share the same access contract so the memory
// hierarchy can swap them freely: Access(blockAddr, write, domain,
// now) -> (hit, latency), plus Advance(now) for leakage integration.
package core

import (
	"fmt"
	"math/bits"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
	"mobilecache/internal/sttram"
	"mobilecache/internal/trace"
)

// L2Stats aggregates the counters every organization reports; the
// experiment harness consumes this uniform view.
type L2Stats struct {
	Accesses [trace.NumDomains]uint64
	Hits     [trace.NumDomains]uint64
	Misses   [trace.NumDomains]uint64

	Evictions             uint64
	InterferenceEvictions uint64
	Writebacks            uint64
	ExpiryInvalidations   uint64

	Refreshes       uint64
	EagerWritebacks uint64
	CleanExpiries   uint64
	DirtyExpiries   uint64
	FaultExpiries   uint64
}

// TotalAccesses sums both domains.
func (s L2Stats) TotalAccesses() uint64 {
	return s.Accesses[trace.User] + s.Accesses[trace.Kernel]
}

// TotalMisses sums both domains.
func (s L2Stats) TotalMisses() uint64 {
	return s.Misses[trace.User] + s.Misses[trace.Kernel]
}

// MissRate is overall misses/accesses.
func (s L2Stats) MissRate() float64 {
	if s.TotalAccesses() == 0 {
		return 0
	}
	return float64(s.TotalMisses()) / float64(s.TotalAccesses())
}

// DomainMissRate is one domain's miss rate.
func (s L2Stats) DomainMissRate(d trace.Domain) float64 {
	if s.Accesses[d] == 0 {
		return 0
	}
	return float64(s.Misses[d]) / float64(s.Accesses[d])
}

// KernelShare is the kernel fraction of L2 accesses (experiment E1).
func (s L2Stats) KernelShare() float64 {
	if s.TotalAccesses() == 0 {
		return 0
	}
	return float64(s.Accesses[trace.Kernel]) / float64(s.TotalAccesses())
}

// add merges o into s.
func (s *L2Stats) add(o L2Stats) {
	for d := 0; d < trace.NumDomains; d++ {
		s.Accesses[d] += o.Accesses[d]
		s.Hits[d] += o.Hits[d]
		s.Misses[d] += o.Misses[d]
	}
	s.Evictions += o.Evictions
	s.InterferenceEvictions += o.InterferenceEvictions
	s.Writebacks += o.Writebacks
	s.ExpiryInvalidations += o.ExpiryInvalidations
	s.Refreshes += o.Refreshes
	s.EagerWritebacks += o.EagerWritebacks
	s.CleanExpiries += o.CleanExpiries
	s.DirtyExpiries += o.DirtyExpiries
	s.FaultExpiries += o.FaultExpiries
}

// L2 is the contract every organization satisfies. The hierarchy in
// internal/mem drives it; the experiment harness reads its stats.
type L2 interface {
	// Access performs one block access at time now and returns whether
	// it hit and the cycles the L2 itself contributed (bank wait +
	// array latency). DRAM time on a miss is the caller's to add.
	Access(blockAddr uint64, write bool, dom trace.Domain, now uint64) (hit bool, latency uint64)
	// Advance integrates leakage (and runs due refresh scans) up to now.
	Advance(now uint64)
	// Energy reports the accumulated energy breakdown.
	Energy() energy.Breakdown
	// Stats reports the aggregated event counters.
	Stats() L2Stats
	// SizeBytes is the organization's total installed capacity.
	SizeBytes() uint64
	// PoweredBytes is the currently powered capacity (gating-aware).
	PoweredBytes() uint64
}

// SegmentConfig describes one physical array (a whole unified L2, or
// one side of a static partition).
type SegmentConfig struct {
	// Name labels the segment.
	Name string
	// SizeBytes, Ways, BlockBytes set the geometry.
	SizeBytes  uint64
	Ways       int
	BlockBytes int
	// Policy is the replacement policy (default LRU).
	Policy cache.PolicyKind
	// Tech selects the memory technology.
	Tech energy.Tech
	// Refresh selects the refresh policy for bounded-retention techs.
	Refresh sttram.RefreshPolicy
	// ParamsOverride, when non-nil, replaces the default technology
	// parameters — used by sensitivity sweeps (e.g. a parametric
	// retention target from energy.ParamsForRetention).
	ParamsOverride *energy.Params
	// RefreshLimit caps consecutive idle refreshes per line before the
	// controller writes the line back and lets it expire (the dynamic
	// refresh scheme). Zero means unlimited.
	RefreshLimit uint32
	// Banks is the number of independently schedulable banks the array
	// is interleaved across (by block address). More banks reduce
	// bank-busy serialization. Zero or one means a single bank.
	Banks int
	// RetentionJitter derates per-line retention into
	// [retention*(1-j), retention] to model process variation (0 =
	// nominal retention everywhere).
	RetentionJitter float64
	// FaultBER injects stochastic retention faults: each fill suffers
	// a seeded thermal-tail early expiry with this probability (0 =
	// ideal cells). Only meaningful for STT-RAM technologies.
	FaultBER float64
	// FaultSeed seeds the deterministic fault draws.
	FaultSeed uint64
	// TimeCompress divides the retention budget by this factor (0 or 1
	// = off). Set-sampled runs compress simulated time by the sampling
	// factor — a 1/8 replay covers 1/8 of the instructions, hence 1/8
	// of the cycles — so retention (and the refresh cadence derived
	// from it) must compress identically or refresh dynamics would run
	// 8x slow relative to the per-line access intervals. Compression
	// happens here, at the cycle level, rather than by rewriting the
	// config's retention seconds: ParamsForRetention couples retention
	// to write energy, which must not change under sampling.
	TimeCompress uint64
}

// Validate checks the segment configuration.
func (sc SegmentConfig) Validate() error {
	cc := cache.Config{Name: sc.Name, SizeBytes: sc.SizeBytes, Ways: sc.Ways, BlockBytes: sc.BlockBytes, Policy: sc.Policy}
	if err := cc.Validate(); err != nil {
		return err
	}
	if !sc.Tech.Valid() {
		return fmt.Errorf("core: segment %s: invalid tech %d", sc.Name, sc.Tech)
	}
	if !sc.Refresh.Valid() {
		return fmt.Errorf("core: segment %s: invalid refresh policy %d", sc.Name, sc.Refresh)
	}
	if sc.Banks < 0 || sc.Banks > 64 {
		return fmt.Errorf("core: segment %s: bank count %d outside 0..64", sc.Name, sc.Banks)
	}
	if sc.FaultBER < 0 || sc.FaultBER > 1 {
		return fmt.Errorf("core: segment %s: fault BER %g outside [0, 1]", sc.Name, sc.FaultBER)
	}
	if sc.FaultBER > 0 && !sc.Tech.IsSTT() {
		return fmt.Errorf("core: segment %s: retention faults need an STT-RAM tech, got %s", sc.Name, sc.Tech)
	}
	return nil
}

// segment is one physical bank: cache array + energy meter + retention
// controller + bank-busy tracking.
type segment struct {
	cfg   SegmentConfig
	c     *cache.Cache
	meter *energy.Meter
	ctrl  *sttram.Controller
	// wb receives dirty victim addresses (DRAM writeback path).
	wb func(addr uint64)
	// busyUntil models bank occupancy: a new access waits for the
	// previous one to release its bank, which is how costlier STT-RAM
	// writes translate into real stall cycles. One entry per bank,
	// indexed by block address.
	busyUntil []uint64

	// Access-path constants hoisted out of the hot loop: meter params
	// are immutable after construction, block size is a power of two,
	// and an unbounded-retention (SRAM) controller never expires lines.
	readCycles  uint64
	writeCycles uint64
	blockShift  uint
	bankMask    uint64 // len(busyUntil)-1 when a power of two
	bankPow2    bool
	volatile    bool // ctrl.CanExpire()
}

func newSegment(cfg SegmentConfig, wb func(addr uint64)) (*segment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := cache.New(cache.Config{
		Name: cfg.Name, SizeBytes: cfg.SizeBytes, Ways: cfg.Ways,
		BlockBytes: cfg.BlockBytes, Policy: cfg.Policy,
	})
	if err != nil {
		return nil, err
	}
	params := energy.DefaultParams(cfg.Tech)
	if cfg.ParamsOverride != nil {
		params = *cfg.ParamsOverride
	}
	meter := energy.NewMeter(params, cfg.SizeBytes)
	retention := params.RetentionCycles
	if cfg.TimeCompress > 1 && retention > 0 {
		retention /= cfg.TimeCompress
		if retention == 0 {
			retention = 1
		}
	}
	ctrl, err := sttram.NewController(c, meter, retention, cfg.Refresh, wb)
	if err != nil {
		return nil, err
	}
	ctrl.SetRefreshLimit(cfg.RefreshLimit)
	ctrl.SetRetentionJitter(cfg.RetentionJitter)
	ctrl.SetRetentionFaults(cfg.FaultBER, cfg.FaultSeed)
	banks := cfg.Banks
	if banks <= 0 {
		banks = 1
	}
	s := &segment{cfg: cfg, c: c, meter: meter, ctrl: ctrl, wb: wb, busyUntil: make([]uint64, banks)}
	p := meter.Params()
	s.readCycles, s.writeCycles = p.ReadCycles, p.WriteCycles
	s.blockShift = uint(bits.TrailingZeros(uint(cfg.BlockBytes)))
	s.bankPow2 = banks&(banks-1) == 0
	s.bankMask = uint64(banks - 1)
	s.volatile = ctrl.CanExpire()
	return s, nil
}

// bankOf maps a block address to its bank.
func (s *segment) bankOf(blockAddr uint64) int {
	if s.bankPow2 {
		return int((blockAddr >> s.blockShift) & s.bankMask)
	}
	return int((blockAddr / uint64(s.cfg.BlockBytes)) % uint64(len(s.busyUntil)))
}

// access runs the full probe/expiry/touch/fill sequence on the bank.
func (s *segment) access(blockAddr uint64, write bool, dom trace.Domain, now uint64) (hit bool, latency uint64) {
	var set, way int
	if s.volatile {
		s.ctrl.Tick(now)
		set, way, hit = s.c.Probe(blockAddr)
		if hit && s.ctrl.Expired(set, way, now) {
			s.ctrl.HandleExpired(set, way, now)
			hit = false
		}
		s.c.CountAccess(dom, hit)
		if hit {
			s.c.Touch(set, way, write, dom, now)
		}
	} else {
		// Non-volatile arrays (SRAM) can never expire a line between the
		// probe and the touch, so the fused lookup — identical counter
		// and replacement-state effects — replaces the split sequence.
		set, way, hit = s.c.Lookup(blockAddr, write, dom, now)
	}

	bank := s.bankOf(blockAddr)
	start := now
	if s.busyUntil[bank] > start {
		start = s.busyUntil[bank]
	}

	if hit {
		lat := s.readCycles
		if write {
			lat = s.writeCycles
			s.meter.Write(1)
		} else {
			s.meter.Read(1)
		}
		s.busyUntil[bank] = start + lat
		return true, s.busyUntil[bank] - now
	}

	// Miss: the probe consumed a tag read; the fill writes the array.
	s.meter.Read(1)
	res := s.c.Fill(blockAddr, write, dom, now)
	s.meter.Write(1)
	if res.Evicted && res.EvictedDirty {
		// Victim must be read out of the array and written to DRAM.
		s.meter.Read(1)
		if s.wb != nil {
			s.wb(res.EvictedAddr)
		}
	}
	// The demand path pays the probe; the fill write occupies the bank
	// afterwards but is off the critical path.
	s.busyUntil[bank] = start + s.readCycles + s.writeCycles
	return false, (start + s.readCycles) - now
}

func (s *segment) advance(now uint64) {
	s.ctrl.Tick(now)
	s.meter.Advance(now)
}

func (s *segment) stats() L2Stats {
	cs := s.c.Stats()
	rs := s.ctrl.Stats()
	var out L2Stats
	for d := 0; d < trace.NumDomains; d++ {
		out.Accesses[d] = cs.Accesses[d]
		out.Hits[d] = cs.Hits[d]
		out.Misses[d] = cs.Misses[d]
	}
	out.Evictions = cs.Evictions
	out.InterferenceEvictions = cs.InterferenceEvictions
	out.Writebacks = cs.Writebacks
	out.ExpiryInvalidations = cs.ExpiryInvalidations
	out.Refreshes = rs.Refreshes
	out.EagerWritebacks = rs.EagerWritebacks
	out.CleanExpiries = rs.CleanExpiries
	out.DirtyExpiries = rs.DirtyExpiries
	out.FaultExpiries = rs.FaultExpiries
	return out
}

// Unified is the conventional shared L2: one array, both domains.
type Unified struct {
	seg *segment
}

// NewUnified builds a unified L2 from cfg. wb receives dirty victim
// addresses.
func NewUnified(cfg SegmentConfig, wb func(addr uint64)) (*Unified, error) {
	seg, err := newSegment(cfg, wb)
	if err != nil {
		return nil, err
	}
	return &Unified{seg: seg}, nil
}

// Access implements L2.
func (u *Unified) Access(blockAddr uint64, write bool, dom trace.Domain, now uint64) (bool, uint64) {
	return u.seg.access(blockAddr, write, dom, now)
}

// Advance implements L2.
func (u *Unified) Advance(now uint64) { u.seg.advance(now) }

// Energy implements L2.
func (u *Unified) Energy() energy.Breakdown { return u.seg.meter.Breakdown() }

// Stats implements L2.
func (u *Unified) Stats() L2Stats { return u.seg.stats() }

// SizeBytes implements L2.
func (u *Unified) SizeBytes() uint64 { return u.seg.cfg.SizeBytes }

// PoweredBytes implements L2; a unified array is always fully powered.
func (u *Unified) PoweredBytes() uint64 { return u.seg.cfg.SizeBytes }

// interface conformance checks
var (
	_ L2 = (*Unified)(nil)
)
