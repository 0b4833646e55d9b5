// Package sim assembles machines from configs and runs workloads on
// them, producing the uniform RunReport every experiment consumes. It
// also defines the seven standard machines the paper compares:
//
//	baseline-sram   1MB 16-way unified SRAM L2 (normalization baseline)
//	baseline-stt    1MB 16-way unified long-retention STT-RAM L2
//	baseline-drowsy 1MB 16-way drowsy SRAM L2 (circuit-level baseline)
//	sp              static partition, 512KB user + 256KB kernel, SRAM
//	sp-mr           static partition, multi-retention STT-RAM
//	dp              dynamic partition, 1MB 16-way SRAM, way gating
//	dp-sr           dynamic partition, short-retention STT-RAM
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"mobilecache/internal/config"
	"mobilecache/internal/core"
	"mobilecache/internal/cpu"
	"mobilecache/internal/mem"
	"mobilecache/internal/sample"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// Machine is a built, runnable machine.
type Machine struct {
	Config config.Machine
	CPU    *cpu.CPU
	Hier   *mem.Hierarchy
	L2     core.L2
	DRAM   *mem.DRAM
	// Dynamic is non-nil when the L2 is the dynamic design, giving
	// experiments access to the partition history.
	Dynamic *core.DynamicPartition
	// Static is non-nil when the L2 is the static design.
	Static *core.StaticPartition
	// Sample is non-nil for a set-sampled machine (BuildSampled with an
	// enabled spec): replay sources must be filtered through it, and
	// the resulting raw report covers 1/Factor of the workload.
	Sample *sample.Selector
}

// Build assembles a runnable machine from its description.
func Build(cfg config.Machine) (*Machine, error) {
	return build(cfg, nil)
}

// BuildSampled assembles a set-sampled machine: only the sets the
// spec's selector keeps receive traffic, and every time-denominated
// machine constant (retention, refresh cadence, drowsy window, idle
// cadence, repartition epoch) is compressed by the sampling factor to
// match the compressed replay clock. A disabled spec (factor <= 1)
// builds the identical machine Build does, selector-free.
func BuildSampled(cfg config.Machine, spec sample.Spec) (*Machine, error) {
	spec = spec.Norm()
	if !spec.Enabled() {
		return build(cfg, nil)
	}
	blockBytes, err := sampleBlockBytes(cfg)
	if err != nil {
		return nil, err
	}
	sel, err := sample.NewSelector(spec, blockBytes)
	if err != nil {
		return nil, err
	}
	return build(cfg, sel)
}

// sampleBlockBytes validates the geometry set sampling requires — one
// common block size across every level (the selector keys on it) and
// at least one set per selection group in every cache — and returns
// that block size.
func sampleBlockBytes(cfg config.Machine) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	type level struct {
		name             string
		blockBytes, sets int
	}
	levels := []level{
		{"L1I", cfg.L1I.BlockBytes, cfg.L1I.SizeKB * 1024 / (cfg.L1I.Ways * cfg.L1I.BlockBytes)},
		{"L1D", cfg.L1D.BlockBytes, cfg.L1D.SizeKB * 1024 / (cfg.L1D.Ways * cfg.L1D.BlockBytes)},
	}
	for _, s := range []*config.Segment{cfg.Unified, cfg.User, cfg.Kernel} {
		if s != nil {
			levels = append(levels, level{s.Name, s.BlockBytes, s.SizeKB * 1024 / (s.Ways * s.BlockBytes)})
		}
	}
	blockBytes := levels[0].blockBytes
	for _, l := range levels {
		if l.blockBytes != blockBytes {
			return 0, fmt.Errorf("sim: machine %s: set sampling needs one block size across levels, got %d (%s) vs %d (%s)",
				cfg.Name, blockBytes, levels[0].name, l.blockBytes, l.name)
		}
		if l.sets < sample.NumGroups {
			return 0, fmt.Errorf("sim: machine %s: %s has %d sets, set sampling needs at least %d per cache",
				cfg.Name, l.name, l.sets, sample.NumGroups)
		}
	}
	return blockBytes, nil
}

// compressCycles divides a time constant by the sampling factor,
// keeping a nonzero constant nonzero.
func compressCycles(v, factor uint64) uint64 {
	if v == 0 || factor <= 1 {
		return v
	}
	if v /= factor; v == 0 {
		v = 1
	}
	return v
}

func build(cfg config.Machine, sel *sample.Selector) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	factor := uint64(1)
	if sel != nil {
		factor = uint64(sel.Factor())
	}
	compress := func(seg *core.SegmentConfig) {
		if factor > 1 {
			seg.TimeCompress = factor
		}
	}
	dram := mem.NewDRAM(cfg.DRAMConfig())
	wb := func(addr uint64) { dram.Write(addr) }

	m := &Machine{Config: cfg, DRAM: dram, Sample: sel}
	var l2 core.L2
	switch cfg.Scheme {
	case config.SchemeUnified:
		seg, err := cfg.Unified.ToCore()
		if err != nil {
			return nil, err
		}
		compress(&seg)
		u, err := core.NewUnified(seg, wb)
		if err != nil {
			return nil, err
		}
		l2 = u
	case config.SchemeStatic:
		us, err := cfg.User.ToCore()
		if err != nil {
			return nil, err
		}
		ks, err := cfg.Kernel.ToCore()
		if err != nil {
			return nil, err
		}
		compress(&us)
		compress(&ks)
		sp, err := core.NewStaticPartition(cfg.Name, us, ks, wb)
		if err != nil {
			return nil, err
		}
		m.Static = sp
		l2 = sp
	case config.SchemeDynamic:
		seg, err := cfg.Unified.ToCore()
		if err != nil {
			return nil, err
		}
		compress(&seg)
		dc := cfg.DynamicConfig(seg)
		if sel != nil {
			// The controller's clocks are access-denominated: the epoch
			// compresses with the stream, and the monitors both follow
			// the live sets and open their subsampling by log2(factor)
			// so each epoch still sees a full-strength utility signal.
			dc.EpochAccesses = compressCycles(dc.EpochAccesses, factor)
			shift := uint(bits.TrailingZeros64(factor))
			if dc.SampleShift > shift {
				dc.SampleShift -= shift
			} else {
				dc.SampleShift = 0
			}
			dc.Sample = sel
		}
		dp, err := core.NewDynamicPartition(dc, wb)
		if err != nil {
			return nil, err
		}
		m.Dynamic = dp
		l2 = dp
	case config.SchemeDrowsy:
		seg, err := cfg.Unified.ToCore()
		if err != nil {
			return nil, err
		}
		compress(&seg)
		dc := core.DefaultDrowsyConfig(seg)
		dc.WindowCycles = compressCycles(dc.WindowCycles, factor)
		dw, err := core.NewDrowsyUnified(dc, wb)
		if err != nil {
			return nil, err
		}
		l2 = dw
	default:
		return nil, fmt.Errorf("sim: unknown scheme %q", cfg.Scheme)
	}
	m.L2 = l2

	hier, err := mem.NewHierarchy(cfg.L1I.L1Config("L1I"), cfg.L1D.L1Config("L1D"), l2, dram)
	if err != nil {
		return nil, err
	}
	hier.NextLinePrefetch = cfg.Prefetch
	if sel != nil {
		hier.SampleFilter = sel.SelectsAddr
	}
	m.Hier = hier
	c, err := cpu.New(cpu.Config{
		IdleEvery:  compressCycles(cfg.IdleEvery, factor),
		IdleCycles: compressCycles(cfg.IdleCycles, factor),
	}, hier)
	if err != nil {
		return nil, err
	}
	m.CPU = c
	return m, nil
}

// RunReport is the uniform outcome record of one (machine, workload)
// simulation.
type RunReport struct {
	Machine  string
	Workload string

	CPU cpu.Result
	L2  core.L2Stats

	Energy mem.EnergyReport
	// L2InstalledBytes and L2PoweredBytes snapshot capacity at run end.
	L2InstalledBytes uint64
	L2PoweredBytes   uint64

	// DRAMReads / DRAMWrites are the main-memory traffic.
	DRAMReads  uint64
	DRAMWrites uint64

	// History is the dynamic design's partition trajectory (nil
	// otherwise).
	History []core.PartitionDecision
	// FlushWritebacks is the dynamic design's repartition cost.
	FlushWritebacks uint64

	// SampleFactor is the set-sampling denominator of a sampled run
	// whose counters have been scaled back to full-cache estimates;
	// zero (or one) marks an exact, unsampled report.
	SampleFactor int `json:",omitempty"`
}

// L2EnergyJ is the L2's total energy — the quantity the paper's 75%/85%
// claims are about.
func (r RunReport) L2EnergyJ() float64 { return r.Energy.L2.Total() }

// IPC forwards the CPU's metric.
func (r RunReport) IPC() float64 { return r.CPU.IPC() }

// RunTrace replays a prepared source on the machine and returns the
// raw, unaudited report. Code that reports or records results replays
// through RunSampledTrace, which audits; a caller of RunTrace audits
// the report itself with Audit.
func RunTrace(m *Machine, name string, src trace.Source, maxAccesses uint64) RunReport {
	rep, _ := runTrace(context.TODO(), m, name, src, maxAccesses) // cannot fail: the context never ends
	return rep
}

// runTrace is RunTrace under ctx: a replay whose context ends stops at
// its next frame and returns the context's error instead of a report.
func runTrace(ctx context.Context, m *Machine, name string, src trace.Source, maxAccesses uint64) (RunReport, error) {
	res, err := m.CPU.Run(ctx, src, maxAccesses)
	if err != nil {
		return RunReport{}, err
	}
	rep := RunReport{
		Machine:          m.Config.Name,
		Workload:         name,
		CPU:              res,
		L2:               m.L2.Stats(),
		Energy:           m.Hier.Energy(),
		L2InstalledBytes: m.L2.SizeBytes(),
		L2PoweredBytes:   m.L2.PoweredBytes(),
		DRAMReads:        m.DRAM.Reads(),
		DRAMWrites:       m.DRAM.Writes(),
	}
	if m.Dynamic != nil {
		rep.History = m.Dynamic.History()
		rep.FlushWritebacks = m.Dynamic.FlushWritebacks()
	}
	return rep, nil
}

// Run is the one workload entry point. It builds the machine fresh —
// set-sampled under an enabled spec, and single-use, so every run
// starts with cold caches — replays warmup+accesses records of the
// app's trace and returns the audited report of the last accesses of
// them, scaled to full-cache estimates when the machine is sampled.
//
// With a store, the trace comes from the shared arena: generated once
// per (profile, seed, length) across every machine that replays it,
// and for a sampled machine filtered once per spec into a cached
// derived stream (see filteredTrace). A nil store drives the workload
// generator directly, filtering live when sampled. Both carry the
// byte-identical stream, so reports do not depend on which one served
// a run.
//
// A positive warmup measures only what follows the warmup prefix (see
// runWarm). The prefix is access-denominated, so it compresses with a
// sampled stream: warmup/Factor filtered records warm the machine, and
// the measured remainder covers the same trace extent the full run
// measures. Counters are two-snapshot diffs, so scaling composes.
//
// The replay polls ctx once per frame: when ctx ends, Run returns its
// error at the next frame boundary and no report. Trace generation and
// derived-trace builds run to completion first; they are bounded by
// the trace length.
func Run(ctx context.Context, store *tracestore.Store, cfg config.Machine, prof workload.Profile, seed uint64, warmup, accesses int, spec sample.Spec) (RunReport, error) {
	if err := chaosEnter(cfg.Name, prof.Name, seed); err != nil {
		return RunReport{}, err
	}
	m, err := BuildSampled(cfg, spec)
	if err != nil {
		return RunReport{}, err
	}
	total := warmup + accesses
	var (
		src  trace.Source
		live *sample.Source // the live filter, read after the replay
		st   sample.Stats
	)
	switch {
	case store == nil:
		gen, err := workload.NewGenerator(prof, seed, workload.PhaseLen(prof, total))
		if err != nil {
			return RunReport{}, err
		}
		src = trace.NewLimitSource(gen, total)
		if m.Sample != nil {
			live = sample.NewSource(m.Sample, src)
			src = live
		}
	case m.Sample != nil:
		if src, st, err = filteredTrace(store, m, prof, seed, total); err != nil {
			return RunReport{}, err
		}
	default:
		tr, err := store.GetTrace(prof, seed, total)
		if err != nil {
			return RunReport{}, err
		}
		src = tr.Cursor()
	}
	var rep RunReport
	if warmup == 0 {
		// Not runWarm with an empty prefix: that would trim the dynamic
		// design's epoch-0 allocation from History, which a cold run
		// reports.
		rep, err = runTrace(ctx, m, prof.Name, src, 0)
	} else {
		factor := 1
		if m.Sample != nil {
			factor = m.Sample.Factor()
		}
		rep, err = runWarm(ctx, m, prof.Name, src, uint64(warmup/factor))
	}
	if err != nil {
		return RunReport{}, err
	}
	if live != nil {
		st = live.Stats()
	}
	return finishSampled(m, st, rep)
}

// buildStandardMachines constructs the seven schemes of the paper's
// evaluation. The static segment sizes follow the paper's shrink: the
// partition totals 768KB against the 1MB baseline.
func buildStandardMachines() []config.Machine {
	base := config.Default() // baseline-sram

	baseSTT := config.Default()
	baseSTT.Name = "baseline-stt"
	baseSTT.Unified.Tech = "stt-long"

	// The circuit-level alternative: drowsy SRAM keeps the array but
	// drops idle lines to a state-preserving low-voltage mode.
	drowsy := config.Default()
	drowsy.Name = "baseline-drowsy"
	drowsy.Scheme = config.SchemeDrowsy

	sp := config.Default()
	sp.Name = "sp"
	sp.Scheme = config.SchemeStatic
	sp.Unified = nil
	sp.User = &config.Segment{Name: "L2-user", SizeKB: 512, Ways: 16, BlockBytes: 64, Policy: "lru", Tech: "sram", Refresh: "dirty-only"}
	sp.Kernel = &config.Segment{Name: "L2-kernel", SizeKB: 256, Ways: 16, BlockBytes: 64, Policy: "lru", Tech: "sram", Refresh: "dirty-only"}

	// SP-MR matches each segment's retention class to its block
	// behaviour (E4): second-class retention for the longer-lived user
	// blocks, a millisecond-class cheap-write point (chosen to cover
	// the measured kernel block lifetimes, per the paper's method and
	// the E10 sweep) with a dynamic refresh cap for the short-lived
	// kernel blocks.
	spmr := sp
	spmr.Name = "sp-mr"
	userSeg := *sp.User
	userSeg.Tech = "stt-medium"
	kernelSeg := *sp.Kernel
	kernelSeg.Tech = "stt-short"
	kernelSeg.RetentionS = 2.65e-3
	kernelSeg.Refresh = "periodic-all" // keep hot clean lines alive...
	kernelSeg.RefreshLimit = 3         // ...but stop refreshing idle ones
	spmr.User = &userSeg
	spmr.Kernel = &kernelSeg

	dp := config.Default()
	dp.Name = "dp"
	dp.Scheme = config.SchemeDynamic
	dp.Unified.Name = "L2-dp"
	dp.Dynamic = &config.Dynamic{EpochAccesses: 25_000, Slack: 0.003}

	// The dynamic design shares one array between both domains, so its
	// retention must cover *user* block lifetimes too; following the
	// paper's method of matching retention to measured lifetimes (E4),
	// it uses a millisecond-class relaxed-retention design point
	// rather than the kernel segment's 26.5us class.
	dpsr := config.Default()
	dpsr.Name = "dp-sr"
	dpsr.Scheme = config.SchemeDynamic
	dpsr.Dynamic = &config.Dynamic{EpochAccesses: 25_000, Slack: 0.003}
	dpsr.Unified = &config.Segment{Name: "L2-dpsr", SizeKB: 1024, Ways: 16, BlockBytes: 64, Policy: "lru", Tech: "stt-short", Refresh: "periodic-all", RetentionS: 2.65e-3, RefreshLimit: 3}

	return []config.Machine{base, baseSTT, drowsy, sp, spmr, dp, dpsr}
}

// standard memoizes the built configs: name lookups used to rebuild
// all seven machines per call, which showed up in sweep profiles.
// Callers only ever see deep copies (config.Machine holds pointers, and
// the ablation experiments mutate what they get back), so the memo can
// never be corrupted.
var standard struct {
	once     sync.Once
	machines []config.Machine
	names    []string
	index    map[string]int
}

func standardInit() {
	standard.once.Do(func() {
		standard.machines = buildStandardMachines()
		standard.names = make([]string, len(standard.machines))
		standard.index = make(map[string]int, len(standard.machines))
		for i, m := range standard.machines {
			standard.names[i] = m.Name
			standard.index[m.Name] = i
		}
	})
}

// StandardMachines returns the seven schemes of the paper's evaluation
// as independent copies of the memoized configs.
func StandardMachines() []config.Machine {
	standardInit()
	out := make([]config.Machine, len(standard.machines))
	for i, m := range standard.machines {
		out[i] = m.Clone()
	}
	return out
}

// MachineByName finds one of the standard machines, returning a copy
// the caller may freely mutate.
func MachineByName(name string) (config.Machine, error) {
	standardInit()
	if i, ok := standard.index[name]; ok {
		return standard.machines[i].Clone(), nil
	}
	return config.Machine{}, fmt.Errorf("sim: unknown standard machine %q", name)
}

// StandardMachineNames lists the standard machine names in order.
func StandardMachineNames() []string {
	standardInit()
	return append([]string(nil), standard.names...)
}
