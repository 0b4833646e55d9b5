package mem

import (
	"math"
	"testing"
)

// The DRAM model defers its energy computation to EnergyJ(): the
// access path counts integer events and the joules are computed once
// per report, like energy.Meter.Breakdown. An earlier revision instead
// accumulated a float64 per access; the two orderings round
// differently, so the replacement is gated here by replaying the same
// access stream through both accountings and requiring agreement to
// within 1e-9 relative — far tighter than any result the simulator
// reports, and loose enough to absorb the legitimate accumulation-
// order drift. EXPERIMENTS.md ("Accumulation-order equivalence")
// documents the methodology; make check runs this via the mem package
// race tests.

// accumDRAMEnergy replays the reference per-access accounting: it
// mirrors the deferred model's event classification but adds each
// access's joules to a float64 as the retired implementation did.
type accumDRAMEnergy struct {
	cfg      DRAMConfig
	openRows []uint64
	energyJ  float64
}

func newAccumDRAMEnergy(cfg DRAMConfig) *accumDRAMEnergy {
	a := &accumDRAMEnergy{cfg: cfg}
	if cfg.Policy == RowOpenPage {
		a.openRows = make([]uint64, openPageBanks)
		for i := range a.openRows {
			a.openRows[i] = noOpenRow
		}
	}
	return a
}

func (a *accumDRAMEnergy) rowHit(addr uint64) bool {
	row := addr / openPageRowBytes
	bank := int(row) % openPageBanks
	if a.openRows[bank] == row {
		return true
	}
	a.openRows[bank] = row
	return false
}

func (a *accumDRAMEnergy) read(addr uint64) {
	if a.cfg.Policy == RowOpenPage && a.rowHit(addr) {
		a.energyJ += rowHitPJ * 1e-12
		return
	}
	a.energyJ += a.cfg.ReadPJ * 1e-12
}

func (a *accumDRAMEnergy) write(addr uint64) {
	if a.cfg.Policy == RowOpenPage && a.rowHit(addr) {
		a.energyJ += rowHitPJ * 1e-12
		return
	}
	a.energyJ += a.cfg.WritePJ * 1e-12
}

func relErrF(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / den
}

// TestDRAMEnergyDeferralEquivalence is the ≤1e-9 gate: deferred
// count-based energy vs per-access accumulation over a deterministic
// mixed read/write stream with row locality, under both row policies.
func TestDRAMEnergyDeferralEquivalence(t *testing.T) {
	const n = 200_000
	for _, tc := range []struct {
		name string
		cfg  DRAMConfig
	}{
		{"flat", DefaultDRAMConfig()},
		{"open-page", openPageTestConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDRAM(tc.cfg)
			ref := newAccumDRAMEnergy(tc.cfg)
			state := uint64(0x243f6a8885a308d3)
			for i := 0; i < n; i++ {
				state ^= state >> 12
				state ^= state << 25
				state ^= state >> 27
				r := state * 0x2545f4914f6cdd1d
				// Mostly row-local strides with occasional long jumps, a
				// quarter of the stream writebacks.
				addr := (r>>16)%(1<<12)*64 + (r>>40)%(1<<8)*(2048*8)
				if r&3 == 0 {
					d.Write(addr)
					ref.write(addr)
				} else {
					d.Read(addr)
					ref.read(addr)
				}
			}
			if err := relErrF(d.EnergyJ(), ref.energyJ); err > 1e-9 {
				t.Fatalf("deferred energy %g vs accumulated %g: rel err %g > 1e-9",
					d.EnergyJ(), ref.energyJ, err)
			}
			if d.EnergyJ() <= 0 {
				t.Fatal("stream charged no energy")
			}
		})
	}
}
