package core

import (
	"fmt"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
	"mobilecache/internal/trace"
)

// DrowsyConfig parameterizes the drowsy-SRAM baseline: the classic
// circuit-level leakage reduction (Flautner et al.) that the paper's
// STT-RAM designs implicitly compete against. Lines not accessed
// within a window drop into a low-voltage, state-preserving drowsy
// mode that leaks a fraction of full power; touching a drowsy line
// costs a wake-up penalty.
type DrowsyConfig struct {
	// Segment is the SRAM array geometry.
	Segment SegmentConfig
	// WindowCycles is how long a line stays awake after its last
	// access before dropping into drowsy mode.
	WindowCycles uint64
	// WakeCycles is the extra latency of touching a drowsy line.
	WakeCycles uint64
	// DrowsyLeakRatio is a drowsy cell's leakage relative to an awake
	// cell's.
	DrowsyLeakRatio float64
	// PeripheralFraction is the share of the array's leakage spent in
	// peripheral circuits (decoders, sense amplifiers, wordline
	// drivers) that drowsy mode cannot reduce — the floor under any
	// cell-level technique, and the reason technology replacement
	// (STT-RAM) plus capacity shrink/gating saves more.
	PeripheralFraction float64
}

// DefaultDrowsyConfig returns the published-style drowsy parameters:
// a 4000-cycle window, 1-cycle wake-up, drowsy lines leaking ~8% of
// full power.
func DefaultDrowsyConfig(seg SegmentConfig) DrowsyConfig {
	return DrowsyConfig{
		Segment:            seg,
		WindowCycles:       4000,
		WakeCycles:         1,
		DrowsyLeakRatio:    0.08,
		PeripheralFraction: 0.30,
	}
}

// Validate checks the drowsy parameters.
func (dc DrowsyConfig) Validate() error {
	if err := dc.Segment.Validate(); err != nil {
		return err
	}
	if dc.Segment.Tech != energy.SRAM {
		return fmt.Errorf("core: drowsy mode is an SRAM technique, got %s", dc.Segment.Tech)
	}
	if dc.WindowCycles == 0 {
		return fmt.Errorf("core: drowsy window must be positive")
	}
	if dc.DrowsyLeakRatio < 0 || dc.DrowsyLeakRatio > 1 {
		return fmt.Errorf("core: drowsy leak ratio %g outside [0,1]", dc.DrowsyLeakRatio)
	}
	if dc.PeripheralFraction < 0 || dc.PeripheralFraction > 1 {
		return fmt.Errorf("core: peripheral fraction %g outside [0,1]", dc.PeripheralFraction)
	}
	return nil
}

// DrowsyUnified is a unified SRAM L2 with drowsy leakage management.
// Unlike power gating it preserves line contents, so it trades no
// misses — only wake-up latency — for a bounded leakage reduction.
type DrowsyUnified struct {
	cfg DrowsyConfig
	seg *segment
}

// NewDrowsyUnified builds the drowsy baseline.
func NewDrowsyUnified(cfg DrowsyConfig, wb func(addr uint64)) (*DrowsyUnified, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seg, err := newSegment(cfg.Segment, wb)
	if err != nil {
		return nil, err
	}
	return &DrowsyUnified{cfg: cfg, seg: seg}, nil
}

// Access implements L2, adding the wake-up penalty for drowsy hits.
func (d *DrowsyUnified) Access(blockAddr uint64, write bool, dom trace.Domain, now uint64) (bool, uint64) {
	// Peek at the line's age before the segment updates LastTouch.
	wake := uint64(0)
	if set, way, hit := d.seg.c.Probe(blockAddr); hit {
		if meta := d.seg.c.Meta(set, way); meta != nil && now-meta.LastTouch > d.cfg.WindowCycles {
			wake = d.cfg.WakeCycles
		}
	}
	hit, lat := d.seg.access(blockAddr, write, dom, now)
	return hit, lat + wake
}

// Advance implements L2; before integrating leakage it samples the
// awake fraction and scales the meter's powered fraction so drowsy
// lines leak at the reduced rate. (The approximation integrates each
// interval at its end-of-interval awake fraction — accurate when
// Advance is called every few thousand accesses, as the CPU does.)
func (d *DrowsyUnified) Advance(now uint64) {
	awake := 0
	d.seg.c.VisitValid(func(_, _ int, meta *cache.BlockMeta) {
		if now-meta.LastTouch <= d.cfg.WindowCycles {
			awake++
		}
	})
	total := d.cfg.Segment.Sets() * d.cfg.Segment.Ways
	awakeFrac := float64(awake) / float64(total)
	cells := awakeFrac + (1-awakeFrac)*d.cfg.DrowsyLeakRatio
	eff := d.cfg.PeripheralFraction + (1-d.cfg.PeripheralFraction)*cells
	d.seg.meter.SetPoweredFraction(eff)
	d.seg.advance(now)
}

var _ L2 = (*DrowsyUnified)(nil)

// Energy implements L2.
func (d *DrowsyUnified) Energy() energy.Breakdown { return d.seg.meter.Breakdown() }

// Stats implements L2.
func (d *DrowsyUnified) Stats() L2Stats { return d.seg.stats() }

// SizeBytes implements L2.
func (d *DrowsyUnified) SizeBytes() uint64 { return d.cfg.Segment.SizeBytes }

// PoweredBytes implements L2; all capacity stays powered (drowsy lines
// are still retained).
func (d *DrowsyUnified) PoweredBytes() uint64 { return d.cfg.Segment.SizeBytes }
