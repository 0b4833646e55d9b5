// Package mem assembles the memory hierarchy around an L2
// organization: split L1 instruction/data caches in front, a
// fixed-latency DRAM behind, and the plumbing between them (demand
// fills, dirty writebacks, energy accounting). The L2 itself is any
// implementation of core.L2 — the unified baseline or one of the
// paper's partitioned designs plug in interchangeably. Replay runs in
// two stages split at the L1/L2 boundary (see frame.go): the front
// stage (Front) turns accesses into L2-bound events, and the back
// stage (Hierarchy.Back) runs them through the L2 and DRAM.
package mem

import (
	"fmt"
	"math/bits"

	"mobilecache/internal/cache"
	"mobilecache/internal/core"
	"mobilecache/internal/energy"
	"mobilecache/internal/trace"
)

// RowPolicy selects the DRAM timing model.
type RowPolicy uint8

const (
	// rowFlat charges a single flat latency per access (closed-page
	// abstraction) — the default the experiments calibrate against.
	rowFlat RowPolicy = iota
	// RowOpenPage models per-bank open rows: accesses to the open row
	// are faster and cheaper, row conflicts pay precharge+activate.
	RowOpenPage
)

// DRAMConfig parameterizes the main-memory model: either a flat access
// latency (LPDDR-class abstraction) or an open-page row-buffer model.
type DRAMConfig struct {
	// Policy selects flat or open-page timing.
	Policy RowPolicy

	// LatencyCycles, ReadPJ and WritePJ drive the flat model, and are
	// also the row-miss costs of the open-page model.
	LatencyCycles uint64
	ReadPJ        float64
	WritePJ       float64
}

// The open-page model's LPDDR-style row buffers: 8 banks of 2KB rows,
// rows interleaved across banks, and an open-row hit that costs 120
// cycles and 12nJ whatever the row-miss costs are.
const (
	openPageBanks    = 8
	openPageRowBytes = 2048
	rowHitCycles     = 120
	rowHitPJ         = 12_000
)

const noOpenRow = ^uint64(0)

// DRAM is the main memory model. Like energy.Meter, it keeps only
// integer event counts on the access path — reads, writebacks, and the
// row-hit split of each — and computes energy from them at EnergyJ()
// time. The per-access work is pure integer bookkeeping; the float
// multiplies run once per report, and accumulation-order rounding
// disappears (the sum n*pJ is exact where adding pJ n times is not).
type DRAM struct {
	cfg    DRAMConfig
	reads  uint64
	writes uint64

	openRows [openPageBanks]uint64
	// rowHitReads/rowHitWrites split the open-page row hits by
	// operation: the two sides charge different miss energies, so the
	// deferred energy computation needs the split, and the public
	// RowHits/RowMisses counters derive from them (every access
	// classifies exactly once).
	rowHitReads  uint64
	rowHitWrites uint64
}

// NewDRAM builds a DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	d := &DRAM{cfg: cfg}
	for i := range d.openRows {
		d.openRows[i] = noOpenRow
	}
	return d
}

// rowLookup classifies an access against the open-row state and
// updates it, returning whether it hit the open row.
func (d *DRAM) rowLookup(addr uint64) bool {
	row := addr / openPageRowBytes
	bank := row % openPageBanks
	if d.openRows[bank] == row {
		return true
	}
	d.openRows[bank] = row
	return false
}

// Read charges one demand fill of addr and returns its latency.
func (d *DRAM) Read(addr uint64) uint64 {
	d.reads++
	if d.cfg.Policy == RowOpenPage && d.rowLookup(addr) {
		d.rowHitReads++
		return rowHitCycles
	}
	return d.cfg.LatencyCycles
}

// Write charges one writeback of addr (off the critical path; no
// latency returned).
func (d *DRAM) Write(addr uint64) {
	d.writes++
	if d.cfg.Policy == RowOpenPage && d.rowLookup(addr) {
		d.rowHitWrites++
	}
}

// Reads reports demand fills served.
func (d *DRAM) Reads() uint64 { return d.reads }

// Writes reports writebacks absorbed.
func (d *DRAM) Writes() uint64 { return d.writes }

// EnergyJ computes total DRAM access energy from the event counts.
// Deferring the float math here (rather than accumulating joules per
// access) mirrors energy.Meter.Breakdown: the hot path stays integer,
// and each event class contributes one exactly-rounded product instead
// of n incremental additions.
func (d *DRAM) EnergyJ() float64 {
	pJ := float64(d.reads)*d.cfg.ReadPJ + float64(d.writes)*d.cfg.WritePJ
	if d.cfg.Policy == RowOpenPage {
		// Row hits charge rowHitPJ instead of the full access energy:
		// swap the difference in, per operation class.
		pJ += float64(d.rowHitReads)*(rowHitPJ-d.cfg.ReadPJ) +
			float64(d.rowHitWrites)*(rowHitPJ-d.cfg.WritePJ)
	}
	return pJ * 1e-12
}

// L1Config parameterizes one first-level cache.
type L1Config struct {
	Name       string
	SizeBytes  uint64
	Ways       int
	BlockBytes int
}

// L1 is a first-level cache: SRAM, write-back, write-allocate, and LRU
// with every way powered. It is a tag array the front stage scans and
// fills directly (see frame.go), and it keeps no time stamps: no
// report reads an L1 line's age, so the L1s take no clock.
type L1 struct {
	cfg  L1Config
	geom trace.SetTagGeom
	// tags holds slot i's tag, or invalidTag when the slot is empty. It
	// runs scanWays invalidTag entries past the last set, so the hit
	// scan's fixed-width window never leaves the array; nothing writes
	// them.
	tags []uint64
	// seqs holds slot i's LRU sequence, or 0 when the slot is empty. The
	// counter pre-increments, so a filled slot's sequence is positive
	// and an empty slot wins the victim scan.
	seqs []uint64
	// flags holds slot i's fill domain (bit 0) and its dirty bit
	// (l1Dirty); an empty slot's is 0.
	flags []uint8
	seq   uint64
	// stats holds the per-domain accesses, hits and misses, flushed
	// once per frame; the L1 keeps no other counter.
	stats cache.Stats
	meter *energy.Meter
}

// l1Dirty is the dirty bit of an L1 slot's flags.
const l1Dirty = 2

// invalidTag marks an empty L1 slot. No genuine tag equals it: a tag is
// the address shifted right past the block offset and set index, and
// cache.Config.Validate rejects the one geometry with neither (1-byte
// blocks in a single set).
const invalidTag = ^uint64(0)

// NewL1 builds an empty L1 from cfg.
func NewL1(cfg L1Config) (*L1, error) {
	cc := cache.Config{Name: cfg.Name, SizeBytes: cfg.SizeBytes, Ways: cfg.Ways, BlockBytes: cfg.BlockBytes}
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	sets := cc.Sets()
	l := &L1{
		cfg: cfg,
		geom: trace.SetTagGeom{
			BlockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
			IndexMask:  uint64(sets - 1),
			TagShift:   uint(bits.Len64(uint64(sets - 1))),
		},
		tags:  make([]uint64, sets*cfg.Ways+scanWays),
		seqs:  make([]uint64, sets*cfg.Ways),
		flags: make([]uint8, sets*cfg.Ways),
		// L1s are always SRAM; leakage scales with their (small) size.
		meter: energy.NewMeter(energy.DefaultParams(energy.SRAM), cfg.SizeBytes),
	}
	for i := range l.tags {
		l.tags[i] = invalidTag
	}
	return l, nil
}

// fill puts the block (set, tag) into the set's least recently used
// slot, an empty one first, for domain dom. When the victim is dirty it
// returns the victim's block address, rebuilt from its set and tag, and
// its fill domain.
func (l *L1) fill(set int32, tag uint64, write bool, dom trace.Domain) (victim uint64, vdom trace.Domain, dirty bool) {
	base := int(set) * l.cfg.Ways
	seqs := l.seqs[base : base+l.cfg.Ways]
	way := 0
	for w := range seqs {
		if seqs[w] < seqs[way] {
			way = w
		}
	}
	i := base + way
	if fl := l.flags[i]; fl&l1Dirty != 0 {
		victim = (l.tags[i]<<l.geom.TagShift | uint64(set)) << l.geom.BlockShift
		vdom, dirty = trace.Domain(fl&1), true
	}
	l.seq++
	l.tags[i], l.seqs[i] = tag, l.seq
	l.flags[i] = uint8(dom & 1)
	if write {
		l.flags[i] |= l1Dirty
	}
	return victim, vdom, dirty
}

// Stats reports the L1's per-domain accesses, hits and misses.
func (l *L1) Stats() *cache.Stats { return &l.stats }

// Energy reports the L1's energy breakdown.
func (l *L1) Energy() energy.Breakdown { return l.meter.Breakdown() }

// Front is the hierarchy's front stage: the split L1s and the
// next-line prefetcher, everything between a CPU access and the L2.
// Its Frame turns trace frames into L2-bound events (see frame.go).
type Front struct {
	L1I *L1
	L1D *L1

	// NextLinePrefetch enables a simple L1 next-line prefetcher: on an
	// L1 data miss, the following block is fetched into the L1 as well
	// (through the L2, off the critical path). Mobile cores ship
	// stride/next-line prefetchers; the E17 experiment checks the
	// paper's conclusions hold with one enabled.
	NextLinePrefetch bool
	// SampleFilter, when set, restricts internally generated traffic to
	// the sampled block population: the prefetcher must not fetch a
	// block the replay filter would have dropped, or the sampled run
	// touches sets the scaling rules assume are idle. The demand stream
	// is filtered upstream; this guards only hierarchy-originated
	// addresses. A func field rather than a selector type keeps mem
	// free of a sample-package dependency.
	SampleFilter func(blockAddr uint64) bool
}

// NewFront builds a front stage with cold L1s and the prefetcher off.
func NewFront(l1i, l1d L1Config) (*Front, error) {
	i, err := NewL1(l1i)
	if err != nil {
		return nil, err
	}
	d, err := NewL1(l1d)
	if err != nil {
		return nil, err
	}
	return &Front{L1I: i, L1D: d}, nil
}

// Hierarchy wires CPU-visible accesses through the front stage's L1s,
// the L2, and DRAM. The L1 meters are the back stage's: it charges
// them the counts the front stage reports and integrates their
// leakage on the CPU clock.
type Hierarchy struct {
	Front
	L2   core.L2
	DRAM *DRAM

	// frame is AccessFrame's front-stage output buffer.
	frame FrontFrame
	// lastAdvance remembers the last leakage integration point.
	lastAdvance uint64
}

// NewHierarchy assembles a hierarchy.
func NewHierarchy(l1i, l1d L1Config, l2 core.L2, dram *DRAM) (*Hierarchy, error) {
	if l2 == nil {
		return nil, fmt.Errorf("mem: hierarchy needs an L2")
	}
	if dram == nil {
		return nil, fmt.Errorf("mem: hierarchy needs a DRAM")
	}
	f, err := NewFront(l1i, l1d)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{Front: *f, L2: l2, DRAM: dram}, nil
}

// Advance integrates leakage in every level up to cycle now.
func (h *Hierarchy) Advance(now uint64) {
	if now < h.lastAdvance {
		return
	}
	h.L1I.meter.Advance(now)
	h.L1D.meter.Advance(now)
	h.L2.Advance(now)
	h.lastAdvance = now
}

// EnergyReport is the hierarchy-wide energy account.
type EnergyReport struct {
	L1I   energy.Breakdown
	L1D   energy.Breakdown
	L2    energy.Breakdown
	DRAMJ float64
}

// TotalJ sums every level.
func (r EnergyReport) TotalJ() float64 {
	return r.L1I.Total() + r.L1D.Total() + r.L2.Total() + r.DRAMJ
}

// Energy reports the account as of the last Advance.
func (h *Hierarchy) Energy() EnergyReport {
	return EnergyReport{
		L1I:   h.L1I.Energy(),
		L1D:   h.L1D.Energy(),
		L2:    h.L2.Energy(),
		DRAMJ: h.DRAM.EnergyJ(),
	}
}
