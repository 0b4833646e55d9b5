package core

import (
	"fmt"
	"math/bits"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
	"mobilecache/internal/sample"
	"mobilecache/internal/trace"
)

// DynamicConfig parameterizes the dynamic partition design.
type DynamicConfig struct {
	// Segment is the geometry and technology of the single L2 array.
	Segment SegmentConfig
	// EpochAccesses is the repartition interval in L2 accesses.
	EpochAccesses uint64
	// Slack is the per-way miss premium: the controller picks the
	// allocation minimizing estimated misses plus Slack*accesses for
	// every powered way, so it gates a way whenever that way's
	// marginal hit rate falls below Slack. Setting it to the
	// energy break-even (leakage saved per way-epoch divided by the
	// DRAM cost of one extra miss) makes the controller minimize
	// energy; the paper's "minimize overall cache size" behaviour.
	Slack float64
	// MinWaysPerDomain keeps every domain allocatable (>= 1).
	MinWaysPerDomain int
	// SampleShift sets monitor set-sampling to 1 in 2^shift sets.
	SampleShift uint
	// MaxStepPerEpoch clamps how many ways a domain's allocation may
	// *shrink* per repartition, damping cold-start over-gating and
	// bounding flush costs. Growth is never clamped: powering a way on
	// costs nothing but leakage, while powering one off discards its
	// contents. Zero selects the default (2).
	MaxStepPerEpoch int
	// Sample, when non-nil, is the set-sampling selector of a sampled
	// run: the utility monitors then subsample the live sets rather
	// than the nominal geometry (see cache.NewDomainMonitorsSampled).
	Sample *sample.Selector
}

// DefaultDynamicConfig returns the controller settings used by the
// paper-reproduction experiments for the given array config.
func DefaultDynamicConfig(seg SegmentConfig) DynamicConfig {
	return DynamicConfig{
		Segment:          seg,
		EpochAccesses:    25_000,
		Slack:            0.005,
		MinWaysPerDomain: 1,
		SampleShift:      3,
		MaxStepPerEpoch:  2,
	}
}

// Validate checks the controller parameters.
func (dc DynamicConfig) Validate() error {
	if err := dc.Segment.Validate(); err != nil {
		return err
	}
	if dc.EpochAccesses == 0 {
		return fmt.Errorf("core: dynamic epoch must be positive")
	}
	if dc.Slack < 0 || dc.Slack > 1 {
		return fmt.Errorf("core: dynamic slack %g outside [0,1]", dc.Slack)
	}
	if dc.MinWaysPerDomain < 1 {
		return fmt.Errorf("core: dynamic min ways %d below 1", dc.MinWaysPerDomain)
	}
	if 2*dc.MinWaysPerDomain > dc.Segment.Ways {
		return fmt.Errorf("core: dynamic min ways %d infeasible for %d-way array", dc.MinWaysPerDomain, dc.Segment.Ways)
	}
	if dc.MaxStepPerEpoch < 0 {
		return fmt.Errorf("core: negative max step %d", dc.MaxStepPerEpoch)
	}
	return nil
}

// PartitionDecision records one epoch's allocation, the data behind the
// adaptation-over-time figure (E9).
type PartitionDecision struct {
	// Epoch is the decision index (0 = initial allocation).
	Epoch int
	// AtAccess is the cumulative L2 access count when decided.
	AtAccess uint64
	// AtCycle is the simulated cycle when decided.
	AtCycle uint64
	// UserWays and KernelWays are the new allocation; GatedWays is the
	// powered-off remainder.
	UserWays   int
	KernelWays int
	GatedWays  int
	// EstimatedMissRate is the controller's predicted miss rate for
	// the chosen allocation (from monitor curves).
	EstimatedMissRate float64
}

// DynamicPartition is the paper's third design: a single array whose
// ways are dynamically divided between user and kernel domains by an
// epoch-based controller driven by per-domain shadow-tag utility
// monitors, with surplus ways power-gated to minimize powered capacity.
// Combined with a short-retention STT-RAM segment configuration this is
// the paper's maximal-savings design (DP-SR).
type DynamicPartition struct {
	cfg DynamicConfig
	seg *segment
	mon *cache.DomainMonitors

	epochAccesses uint64
	epochLen      uint64 // current epoch length; ramps up to cfg.EpochAccesses
	totalAccesses uint64
	epoch         int

	userWays, kernelWays int
	history              []PartitionDecision
	flushWritebacks      uint64
}

// NewDynamicPartition builds the design. wb receives dirty victim and
// flush writeback addresses.
func NewDynamicPartition(cfg DynamicConfig, wb func(addr uint64)) (*DynamicPartition, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seg, err := newSegment(cfg.Segment, wb)
	if err != nil {
		return nil, err
	}
	dp := &DynamicPartition{
		cfg: cfg,
		seg: seg,
		mon: cache.NewDomainMonitorsSampled(cfg.Segment.Sets(), cfg.Segment.Ways, cfg.Segment.BlockBytes, cfg.SampleShift, cfg.Sample),
	}
	// Initial allocation: start small and grow on demand — a cold
	// cache cannot exploit full capacity anyway, and powering it up
	// front only leaks.
	start := cfg.Segment.Ways / 8
	if start < cfg.MinWaysPerDomain {
		start = cfg.MinWaysPerDomain
	}
	dp.userWays = start
	dp.kernelWays = start
	// Early epochs are short so the cold-start allocation is corrected
	// quickly; the length doubles until it reaches the configured
	// steady-state epoch.
	dp.epochLen = cfg.EpochAccesses / 8
	if dp.epochLen == 0 {
		dp.epochLen = 1
	}
	dp.applyAllocation(0)
	dp.record(0, 0) // epoch 0: the initial minimal split
	return dp, nil
}

// Sets re-exported from the segment config for monitor geometry.
func (sc SegmentConfig) Sets() int {
	return int(sc.SizeBytes / (uint64(sc.Ways) * uint64(sc.BlockBytes)))
}

// Access implements L2.
func (dp *DynamicPartition) Access(blockAddr uint64, write bool, dom trace.Domain, now uint64) (bool, uint64) {
	dp.mon.Access(blockAddr, dom)
	hit, lat := dp.seg.access(blockAddr, write, dom, now)
	dp.totalAccesses++
	dp.epochAccesses++
	if dp.epochAccesses >= dp.epochLen {
		dp.repartition(now)
		dp.epochAccesses = 0
		if dp.epochLen < dp.cfg.EpochAccesses {
			dp.epochLen *= 2
			if dp.epochLen > dp.cfg.EpochAccesses {
				dp.epochLen = dp.cfg.EpochAccesses
			}
		}
	}
	return hit, lat
}

// Advance implements L2.
func (dp *DynamicPartition) Advance(now uint64) { dp.seg.advance(now) }

// Energy implements L2.
func (dp *DynamicPartition) Energy() energy.Breakdown { return dp.seg.meter.Breakdown() }

// Stats implements L2.
func (dp *DynamicPartition) Stats() L2Stats { return dp.seg.stats() }

// SizeBytes implements L2.
func (dp *DynamicPartition) SizeBytes() uint64 { return dp.cfg.Segment.SizeBytes }

// PoweredBytes implements L2: installed capacity scaled by powered ways.
func (dp *DynamicPartition) PoweredBytes() uint64 {
	return dp.cfg.Segment.SizeBytes * uint64(dp.userWays+dp.kernelWays) / uint64(dp.cfg.Segment.Ways)
}

// ForceAllocation installs a fixed (userWays, kernelWays) split
// immediately — used to study static way partitioning with the same
// machinery (the controller will still repartition at its next epoch
// unless the epoch length exceeds the run). It panics on an infeasible
// split.
func (dp *DynamicPartition) ForceAllocation(userWays, kernelWays int) {
	ways := dp.cfg.Segment.Ways
	if userWays < 1 || kernelWays < 1 || userWays+kernelWays > ways {
		panic(fmt.Sprintf("core: infeasible forced allocation %d+%d of %d", userWays, kernelWays, ways))
	}
	dp.userWays, dp.kernelWays = userWays, kernelWays
	dp.applyAllocation(0)
	dp.record(0, 0)
}

// History returns every partition decision taken so far.
func (dp *DynamicPartition) History() []PartitionDecision { return dp.history }

// FlushWritebacks reports dirty lines written back due to repartition
// flushes (an overhead unique to the dynamic design).
func (dp *DynamicPartition) FlushWritebacks() uint64 { return dp.flushWritebacks }

// repartition recomputes the allocation from the monitors' miss curves.
func (dp *DynamicPartition) repartition(now uint64) {
	dp.epoch++
	ways := dp.cfg.Segment.Ways
	minW := dp.cfg.MinWaysPerDomain
	um, km := dp.mon.Mon[trace.User], dp.mon.Mon[trace.Kernel]
	sampled := um.Accesses() + km.Accesses()
	if sampled == 0 {
		// No signal this epoch (idle); keep the allocation.
		dp.record(now, dp.estMissRate(um, km))
		return
	}

	// Pick the allocation minimizing estimated misses plus a per-way
	// premium — gating every way whose marginal utility is below the
	// premium. Ties prefer fewer powered ways.
	perWay := dp.cfg.Slack * float64(sampled)
	chosenU, chosenK := minW, minW
	chosenMisses := ^uint64(0)
	bestCost := 0.0
	first := true
	for u := minW; u <= ways-minW; u++ {
		for k := minW; u+k <= ways; k++ {
			m := um.MissesWith(u) + km.MissesWith(k)
			cost := float64(m) + perWay*float64(u+k)
			better := cost < bestCost ||
				(cost == bestCost && u+k < chosenU+chosenK)
			if first || better {
				chosenU, chosenK, chosenMisses, bestCost = u, k, m, cost
				first = false
			}
		}
	}

	// Clamp shrinking so one noisy epoch (cold monitors, phase
	// boundary) cannot gate away live capacity violently; growth
	// follows demand immediately.
	step := dp.cfg.MaxStepPerEpoch
	if step == 0 {
		step = 2
	}
	if chosenU < dp.userWays-step {
		chosenU = dp.userWays - step
	}
	if chosenK < dp.kernelWays-step {
		chosenK = dp.kernelWays - step
	}
	// Clamping can overfill the array when one domain shrinks slowly
	// while the other wants to grow; trim the grown domain back.
	if over := chosenU + chosenK - ways; over > 0 {
		if chosenU > dp.userWays { // user was the grower
			chosenU -= min(over, chosenU-dp.cfg.MinWaysPerDomain)
		} else {
			chosenK -= min(over, chosenK-dp.cfg.MinWaysPerDomain)
		}
		// Degenerate curves could still overfill; hard-trim.
		for chosenU+chosenK > ways {
			if chosenU >= chosenK && chosenU > dp.cfg.MinWaysPerDomain {
				chosenU--
			} else if chosenK > dp.cfg.MinWaysPerDomain {
				chosenK--
			} else {
				chosenU--
			}
		}
	}
	chosenMisses = um.MissesWith(chosenU) + km.MissesWith(chosenK)

	if chosenU != dp.userWays || chosenK != dp.kernelWays {
		dp.userWays, dp.kernelWays = chosenU, chosenK
		dp.applyAllocation(now)
	}
	est := 0.0
	if sampled > 0 {
		est = float64(chosenMisses) / float64(sampled)
	}
	dp.record(now, est)
	dp.mon.Halve()
}

func (dp *DynamicPartition) estMissRate(um, km *cache.ShadowTags) float64 {
	sampled := um.Accesses() + km.Accesses()
	if sampled == 0 {
		return 0
	}
	m := um.MissesWith(dp.userWays) + km.MissesWith(dp.kernelWays)
	return float64(m) / float64(sampled)
}

func (dp *DynamicPartition) record(now uint64, est float64) {
	dp.history = append(dp.history, PartitionDecision{
		Epoch:             dp.epoch,
		AtAccess:          dp.totalAccesses,
		AtCycle:           now,
		UserWays:          dp.userWays,
		KernelWays:        dp.kernelWays,
		GatedWays:         dp.cfg.Segment.Ways - dp.userWays - dp.kernelWays,
		EstimatedMissRate: est,
	})
}

// applyAllocation installs the current (userWays, kernelWays) as way
// masks: user gets the low ways, kernel the next ones, the rest are
// gated. Only ways being powered off are flushed (dirty lines written
// back); ways that merely change owner keep their contents — the new
// owner's fills evict the old owner's blocks lazily, and until then
// those blocks still hit, exactly as in hardware way-partitioning.
func (dp *DynamicPartition) applyAllocation(now uint64) {
	ways := dp.cfg.Segment.Ways
	userMask := maskRange(0, dp.userWays)
	kernelMask := maskRange(dp.userWays, dp.userWays+dp.kernelWays)
	enabled := userMask | kernelMask

	c := dp.seg.c
	// Flush only ways that lose power.
	needFlush := c.EnabledMask() &^ enabled
	if needFlush != 0 {
		c.FlushWays(needFlush, now, func(addr uint64) {
			dp.flushWritebacks++
			// Reading the victim out for writeback costs one array read;
			// the DRAM write is charged by the wb callback's owner.
			dp.seg.meter.Read(1)
			if dp.seg.wb != nil {
				dp.seg.wb(addr)
			}
		})
	}

	// Integrate leakage at the old powered fraction before switching.
	dp.seg.meter.Advance(now)
	dp.seg.meter.SetPoweredFraction(float64(bits.OnesCount64(enabled)) / float64(ways))

	c.SetEnabledMask(enabled)
	c.SetDomainMask(trace.User, userMask)
	c.SetDomainMask(trace.Kernel, kernelMask)
}

// maskRange builds a bitmask covering ways [lo, hi).
func maskRange(lo, hi int) uint64 {
	var m uint64
	for w := lo; w < hi; w++ {
		m |= 1 << uint(w)
	}
	return m
}

var _ L2 = (*DynamicPartition)(nil)
