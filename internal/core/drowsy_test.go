package core

import (
	"testing"

	"mobilecache/internal/energy"
	"mobilecache/internal/trace"
)

func drowsyCfg() DrowsyConfig {
	return DefaultDrowsyConfig(segCfg("L2-drowsy", 64*1024, 8, energy.SRAM))
}

func TestDrowsyConfigValidate(t *testing.T) {
	if err := drowsyCfg().Validate(); err != nil {
		t.Fatalf("default drowsy config invalid: %v", err)
	}
	bad := drowsyCfg()
	bad.Segment.Tech = energy.STTShort
	if err := bad.Validate(); err == nil {
		t.Fatal("drowsy accepted on STT-RAM")
	}
	bad = drowsyCfg()
	bad.WindowCycles = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestDrowsyWakePenalty(t *testing.T) {
	d, err := NewDrowsyUnified(drowsyCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Access(0x40, false, trace.User, 0)
	// Fresh hit: no wake penalty.
	_, freshLat := d.Access(0x40, false, trace.User, 100)
	// Stale hit (past the window): +wakePenalty.
	_, staleLat := d.Access(0x40, false, trace.User, 100+drowsyCfg().WindowCycles*3)
	if staleLat != freshLat+wakePenalty {
		t.Fatalf("stale hit latency %d, want fresh %d + wake %d", staleLat, freshLat, wakePenalty)
	}
	// Contents preserved: the stale access was still a hit.
	if st := d.Stats(); st.Misses[trace.User] != 1 {
		t.Fatalf("misses = %d, want only the cold fill", st.Misses[trace.User])
	}
}

func TestDrowsyLeakageBelowPlainSRAM(t *testing.T) {
	plain, err := NewUnified(segCfg("L2-plain", 64*1024, 8, energy.SRAM), nil)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := NewDrowsyUnified(drowsyCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Touch a few lines, then let a long idle stretch elapse.
	for i := uint64(0); i < 64; i++ {
		plain.Access(i*64, false, trace.User, i)
		dw.Access(i*64, false, trace.User, i)
	}
	end := energy.Cycles(0.01) // 10 ms idle
	plain.Advance(end)
	dw.Advance(end)
	pl, dl := plain.Energy().LeakageJ, dw.Energy().LeakageJ
	if dl >= pl/2 {
		t.Fatalf("drowsy leakage %g not well below plain %g", dl, pl)
	}
	// But the peripheral floor holds: cannot go below that share.
	floor := pl * peripheralFraction * 0.9
	if dl < floor {
		t.Fatalf("drowsy leakage %g below the peripheral floor %g", dl, floor)
	}
}

func TestDrowsyKeepsCapacityPowered(t *testing.T) {
	dw, err := NewDrowsyUnified(drowsyCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if dw.PoweredBytes() != dw.SizeBytes() {
		t.Fatal("drowsy mode must retain all lines (state-preserving)")
	}
}

func TestDrowsyNoExtraMisses(t *testing.T) {
	// Drowsy is state-preserving: replaying the same stream on plain
	// and drowsy unified L2s must produce identical hit/miss counts.
	plain, err := NewUnified(segCfg("p", 64*1024, 8, energy.SRAM), nil)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := NewDrowsyUnified(drowsyCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := uint64(0); i < 20000; i++ {
		now += 700 // long gaps: most hits are drowsy
		addr := (i * 2654435761) % (128 * 1024)
		dom := trace.User
		if i%3 == 0 {
			dom = trace.Kernel
		}
		plain.Access(addr, i%5 == 0, dom, now)
		dw.Access(addr, i%5 == 0, dom, now)
	}
	ps, ds := plain.Stats(), dw.Stats()
	if ps.TotalMisses() != ds.TotalMisses() || ps.TotalAccesses() != ds.TotalAccesses() {
		t.Fatalf("drowsy changed miss behaviour: %d/%d vs %d/%d",
			ds.TotalMisses(), ds.TotalAccesses(), ps.TotalMisses(), ps.TotalAccesses())
	}
}
