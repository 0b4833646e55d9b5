// Package energy models the power and energy of the cache arrays the
// paper compares: CMOS SRAM and STT-RAM at three retention classes.
// The parameter values follow the published multi-retention STT-RAM
// characterizations the paper builds on (NVSim-style numbers for a
// 1MB bank in a 32nm-class process): SRAM is leakage-dominated, while
// STT-RAM has near-zero array leakage but pays more energy and latency
// per write — less so at shorter retention, which in turn requires
// refresh. Absolute joules are not the point of the reproduction; the
// first-order relations (leakage ∝ powered capacity and time; write
// cost ∝ retention class; refresh cost ∝ valid lines / retention) are.
package energy

import (
	"fmt"
	"math"
)

// Tech enumerates the memory technologies a cache segment can use.
type Tech uint8

const (
	// SRAM is the 6T CMOS baseline: fast writes, high leakage.
	SRAM Tech = iota
	// STTShort is short-retention STT-RAM (~26.5us): cheapest writes,
	// needs refresh or expiry handling.
	STTShort
	// STTMedium is medium-retention STT-RAM (~3.2s): mid writes, rare
	// refresh at mobile timescales.
	STTMedium
	// STTLong is long-retention STT-RAM (~10y): most expensive writes,
	// no refresh.
	STTLong
	numTechs
)

// Valid reports whether t names a technology.
func (t Tech) Valid() bool { return t < numTechs }

// String returns the canonical name.
func (t Tech) String() string {
	switch t {
	case SRAM:
		return "sram"
	case STTShort:
		return "stt-short"
	case STTMedium:
		return "stt-medium"
	case STTLong:
		return "stt-long"
	default:
		return fmt.Sprintf("tech(%d)", uint8(t))
	}
}

// ParseTech maps a canonical name back to its Tech.
func ParseTech(name string) (Tech, error) {
	for t := Tech(0); t < numTechs; t++ {
		if t.String() == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("energy: unknown technology %q", name)
}

// IsSTT reports whether t is an STT-RAM class.
func (t Tech) IsSTT() bool { return t == STTShort || t == STTMedium || t == STTLong }

// ClockHz is the simulated core clock; latencies and retention times
// are expressed in these cycles throughout the simulator.
const ClockHz = 2e9

// CycleSeconds is the duration of one simulated cycle.
const CycleSeconds = 1.0 / ClockHz

// Seconds converts a cycle count to seconds.
func Seconds(cycles uint64) float64 { return float64(cycles) * CycleSeconds }

// Cycles converts seconds to a cycle count (rounded).
func Cycles(seconds float64) uint64 { return uint64(math.Round(seconds * ClockHz)) }

// Params is the per-technology parameter record for a 64-byte-line
// bank, normalized to 1MB of capacity where size-dependent.
type Params struct {
	// Tech identifies the technology class.
	Tech Tech
	// ReadPJ and WritePJ are per-block-access dynamic energies in
	// picojoules for a 1MB bank.
	ReadPJ  float64
	WritePJ float64
	// ReadCycles and WriteCycles are access latencies for a 1MB bank.
	ReadCycles  uint64
	WriteCycles uint64
	// LeakageMWPerMB is static power per megabyte of powered capacity
	// (array + peripherals) in milliwatts.
	LeakageMWPerMB float64
	// RetentionCycles is the cell retention time; zero means
	// effectively unbounded (SRAM, long-retention STT-RAM).
	RetentionCycles uint64
	// RetentionSeconds documents the nominal retention for tables.
	RetentionSeconds float64
}

// DefaultParams returns the technology table used by all experiments.
// Values follow the multi-retention STT-RAM design points in the
// literature the paper cites (retention 26.5us / 3.24s / ~10y) and a
// 32nm-class SRAM corner.
func DefaultParams(t Tech) Params {
	switch t {
	case SRAM:
		return Params{
			Tech: SRAM, ReadPJ: 168, WritePJ: 168,
			ReadCycles: 12, WriteCycles: 12,
			LeakageMWPerMB: 412, RetentionCycles: 0,
		}
	case STTShort:
		return Params{
			Tech: STTShort, ReadPJ: 188, WritePJ: 190,
			ReadCycles: 13, WriteCycles: 17,
			LeakageMWPerMB:   95,
			RetentionSeconds: 26.5e-6, RetentionCycles: Cycles(26.5e-6),
		}
	case STTMedium:
		return Params{
			Tech: STTMedium, ReadPJ: 188, WritePJ: 466,
			ReadCycles: 13, WriteCycles: 24,
			LeakageMWPerMB:   95,
			RetentionSeconds: 3.24, RetentionCycles: Cycles(3.24),
		}
	case STTLong:
		return Params{
			Tech: STTLong, ReadPJ: 188, WritePJ: 765,
			ReadCycles: 13, WriteCycles: 33,
			LeakageMWPerMB: 95, RetentionCycles: 0,
		}
	default:
		panic(fmt.Sprintf("energy: DefaultParams for invalid tech %d", t))
	}
}

// AllDefaultParams lists the table for every technology, for report
// generation (experiment E5).
func AllDefaultParams() []Params {
	out := make([]Params, 0, int(numTechs))
	for t := Tech(0); t < numTechs; t++ {
		out = append(out, DefaultParams(t))
	}
	return out
}

// Breakdown is an energy account in joules, one bucket per cause.
// Every joule the simulator spends lands in exactly one field.
type Breakdown struct {
	ReadJ    float64
	WriteJ   float64
	LeakageJ float64
	RefreshJ float64
}

// Total sums the buckets.
func (b Breakdown) Total() float64 {
	return b.ReadJ + b.WriteJ + b.LeakageJ + b.RefreshJ
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.ReadJ += o.ReadJ
	b.WriteJ += o.WriteJ
	b.LeakageJ += o.LeakageJ
	b.RefreshJ += o.RefreshJ
}

// Meter accounts the energy of one cache array (one technology, one
// capacity). Leakage integrates over simulated time against the
// *powered* capacity, so way gating directly reduces it.
type Meter struct {
	params    Params
	sizeBytes uint64

	// Dynamic energy is derived from event counts on demand (one
	// integer add per access instead of a float multiply-accumulate on
	// the hot path); only leakage, whose rate varies with the powered
	// fraction, integrates into bd as time advances.
	reads     uint64
	writes    uint64
	refreshes uint64

	bd        Breakdown
	lastCycle uint64
	powered   float64 // powered fraction of capacity in [0,1]
}

// NewMeter builds a meter for an array of sizeBytes built from params.
func NewMeter(params Params, sizeBytes uint64) *Meter {
	return &Meter{params: params, sizeBytes: sizeBytes, powered: 1}
}

// Params returns the technology parameters.
func (m *Meter) Params() Params { return m.params }

const pj = 1e-12

// Read charges n block reads.
func (m *Meter) Read(n uint64) { m.reads += n }

// Write charges n block writes.
func (m *Meter) Write(n uint64) { m.writes += n }

// Refresh charges n line refreshes; a refresh is a read plus a write
// of the line, accounted in the refresh bucket.
func (m *Meter) Refresh(n uint64) { m.refreshes += n }

// Advance integrates leakage up to cycle now at the current powered
// fraction. Calls must use non-decreasing now values.
func (m *Meter) Advance(now uint64) {
	if now < m.lastCycle {
		panic(fmt.Sprintf("energy: meter time went backwards (%d -> %d)", m.lastCycle, now))
	}
	dt := Seconds(now - m.lastCycle)
	mb := float64(m.sizeBytes) / (1024 * 1024)
	m.bd.LeakageJ += m.params.LeakageMWPerMB * 1e-3 * mb * m.powered * dt
	m.lastCycle = now
}

// SetPoweredFraction updates the powered share of the array (0..1) —
// call Advance first so the change applies from now on. Out-of-range
// values are clamped.
func (m *Meter) SetPoweredFraction(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	m.powered = f
}

// Breakdown returns the energy account so far (leakage up to the last
// Advance).
func (m *Meter) Breakdown() Breakdown {
	bd := m.bd
	bd.ReadJ = float64(m.reads) * m.params.ReadPJ * pj
	bd.WriteJ = float64(m.writes) * m.params.WritePJ * pj
	bd.RefreshJ = float64(m.refreshes) * (m.params.ReadPJ + m.params.WritePJ) * pj
	return bd
}
