package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTechNamesRoundTrip(t *testing.T) {
	for tech := Tech(0); tech < numTechs; tech++ {
		got, err := ParseTech(tech.String())
		if err != nil || got != tech {
			t.Fatalf("ParseTech(%q) = %v, %v", tech.String(), got, err)
		}
	}
	if _, err := ParseTech("edram"); err == nil {
		t.Fatal("unknown tech accepted")
	}
	if Tech(99).Valid() {
		t.Fatal("tech 99 claims valid")
	}
}

func TestIsSTT(t *testing.T) {
	if SRAM.IsSTT() {
		t.Fatal("SRAM is not STT")
	}
	for _, tech := range []Tech{STTShort, STTMedium, STTLong} {
		if !tech.IsSTT() {
			t.Fatalf("%v should be STT", tech)
		}
	}
}

func TestCyclesSecondsRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		s := float64(ms) * 1e-3
		back := Seconds(Cycles(s))
		return math.Abs(back-s) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultParamsShape(t *testing.T) {
	sram := DefaultParams(SRAM)
	short := DefaultParams(STTShort)
	med := DefaultParams(STTMedium)
	long := DefaultParams(STTLong)

	// The relations the paper's design space depends on:
	// 1. SRAM leaks far more than any STT-RAM class.
	for _, p := range []Params{short, med, long} {
		if p.LeakageMWPerMB*3 > sram.LeakageMWPerMB {
			t.Fatalf("%v leakage %g too close to SRAM %g", p.Tech, p.LeakageMWPerMB, sram.LeakageMWPerMB)
		}
	}
	// 2. Write energy and latency grow with retention.
	if !(short.WritePJ < med.WritePJ && med.WritePJ < long.WritePJ) {
		t.Fatalf("write energy not increasing with retention: %g %g %g", short.WritePJ, med.WritePJ, long.WritePJ)
	}
	if !(short.WriteCycles < med.WriteCycles && med.WriteCycles < long.WriteCycles) {
		t.Fatal("write latency not increasing with retention")
	}
	// 3. Retention ordering: short < medium; long and SRAM unbounded.
	if short.RetentionCycles == 0 || med.RetentionCycles == 0 {
		t.Fatal("short/medium retention must be bounded")
	}
	if short.RetentionCycles >= med.RetentionCycles {
		t.Fatal("short retention must be shorter than medium")
	}
	if long.RetentionCycles != 0 || sram.RetentionCycles != 0 {
		t.Fatal("long STT and SRAM retention must be unbounded")
	}
	// 4. STT writes cost more than reads.
	for _, p := range []Params{short, med, long} {
		if p.WritePJ <= p.ReadPJ {
			t.Fatalf("%v write energy %g not above read %g", p.Tech, p.WritePJ, p.ReadPJ)
		}
	}
}

func TestAllDefaultParams(t *testing.T) {
	ps := AllDefaultParams()
	if len(ps) != int(numTechs) {
		t.Fatalf("param table has %d rows, want %d", len(ps), numTechs)
	}
	for i, p := range ps {
		if p.Tech != Tech(i) {
			t.Fatalf("row %d is %v", i, p.Tech)
		}
	}
}

func TestDefaultParamsPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DefaultParams(99) did not panic")
		}
	}()
	DefaultParams(Tech(99))
}

func TestBreakdownTotalAndAdd(t *testing.T) {
	a := Breakdown{ReadJ: 1, WriteJ: 2, LeakageJ: 3, RefreshJ: 4}
	if a.Total() != 10 {
		t.Fatalf("total = %g, want 10", a.Total())
	}
	b := Breakdown{ReadJ: 0.5}
	b.Add(a)
	if b.ReadJ != 1.5 || b.Total() != 10.5 {
		t.Fatalf("add result = %+v", b)
	}
}

func TestMeterDynamicEnergy(t *testing.T) {
	p := DefaultParams(SRAM)
	m := NewMeter(p, 1024*1024)
	m.Read(10)
	m.Write(5)
	bd := m.Breakdown()
	wantRead := 10 * p.ReadPJ * 1e-12
	wantWrite := 5 * p.WritePJ * 1e-12
	if math.Abs(bd.ReadJ-wantRead) > 1e-18 {
		t.Fatalf("read energy = %g, want %g", bd.ReadJ, wantRead)
	}
	if math.Abs(bd.WriteJ-wantWrite) > 1e-18 {
		t.Fatalf("write energy = %g, want %g", bd.WriteJ, wantWrite)
	}
}

func TestMeterLeakageIntegration(t *testing.T) {
	p := DefaultParams(SRAM)
	m := NewMeter(p, 1024*1024) // 1 MB
	m.Advance(Cycles(1.0))      // 1 second
	bd := m.Breakdown()
	want := p.LeakageMWPerMB * 1e-3 // 1 MB for 1 s
	if math.Abs(bd.LeakageJ-want)/want > 1e-6 {
		t.Fatalf("leakage = %g J, want %g J", bd.LeakageJ, want)
	}
}

func TestMeterLeakageScalesWithSize(t *testing.T) {
	p := DefaultParams(SRAM)
	m1 := NewMeter(p, 1024*1024)
	m2 := NewMeter(p, 2*1024*1024)
	m1.Advance(1000000)
	m2.Advance(1000000)
	if math.Abs(m2.Breakdown().LeakageJ-2*m1.Breakdown().LeakageJ) > 1e-15 {
		t.Fatal("leakage not linear in capacity")
	}
}

func TestMeterPoweredFraction(t *testing.T) {
	p := DefaultParams(SRAM)
	m := NewMeter(p, 1024*1024)
	m.Advance(Cycles(0.5)) // half a second fully powered
	m.SetPoweredFraction(0.25)
	m.Advance(Cycles(1.0)) // half a second at quarter power
	bd := m.Breakdown()
	full := p.LeakageMWPerMB * 1e-3
	want := 0.5*full + 0.5*full*0.25
	if math.Abs(bd.LeakageJ-want)/want > 1e-6 {
		t.Fatalf("gated leakage = %g, want %g", bd.LeakageJ, want)
	}
	if m.powered != 0.25 {
		t.Fatalf("powered fraction = %g", m.powered)
	}
}

func TestMeterPoweredFractionClamped(t *testing.T) {
	m := NewMeter(DefaultParams(SRAM), 1024)
	m.SetPoweredFraction(-1)
	if m.powered != 0 {
		t.Fatal("negative fraction not clamped")
	}
	m.SetPoweredFraction(2)
	if m.powered != 1 {
		t.Fatal("fraction above 1 not clamped")
	}
}

func TestMeterRefreshBucket(t *testing.T) {
	p := DefaultParams(STTShort)
	m := NewMeter(p, 1024*1024)
	m.Refresh(3)
	bd := m.Breakdown()
	want := 3 * (p.ReadPJ + p.WritePJ) * 1e-12
	if math.Abs(bd.RefreshJ-want) > 1e-18 {
		t.Fatalf("refresh energy = %g, want %g", bd.RefreshJ, want)
	}
	if bd.ReadJ != 0 || bd.WriteJ != 0 {
		t.Fatal("refresh leaked into read/write buckets")
	}
}

func TestMeterTimeMonotonic(t *testing.T) {
	m := NewMeter(DefaultParams(SRAM), 1024)
	m.Advance(100)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Advance did not panic")
		}
	}()
	m.Advance(50)
}

// Property: every joule lands in exactly one bucket — the total equals
// the sum of independent recomputations.
func TestMeterConservation(t *testing.T) {
	f := func(reads, writes, refreshes uint16, cycles uint32) bool {
		p := DefaultParams(STTMedium)
		m := NewMeter(p, 512*1024)
		m.Read(uint64(reads))
		m.Write(uint64(writes))
		m.Refresh(uint64(refreshes))
		m.Advance(uint64(cycles))
		bd := m.Breakdown()
		wantDyn := (float64(reads)*p.ReadPJ + float64(writes)*p.WritePJ +
			float64(refreshes)*(p.ReadPJ+p.WritePJ)) * 1e-12
		wantLeak := p.LeakageMWPerMB * 1e-3 * 0.5 * Seconds(uint64(cycles))
		total := bd.Total()
		want := wantDyn + wantLeak
		return math.Abs(total-want) <= 1e-12*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSTTBeatsSRAMAtLowActivity(t *testing.T) {
	// The paper's energy argument: at mobile (idle-heavy) access rates
	// leakage dominates, so STT-RAM wins despite costlier writes.
	const size = 1024 * 1024
	sram := NewMeter(DefaultParams(SRAM), size)
	stt := NewMeter(DefaultParams(STTLong), size)
	const accesses = 100000
	sram.Read(accesses)
	sram.Write(accesses / 3)
	stt.Read(accesses)
	stt.Write(accesses / 3)
	end := Cycles(0.1) // 100 ms of wall time
	sram.Advance(end)
	stt.Advance(end)
	if stt.Breakdown().Total() >= sram.Breakdown().Total()/2 {
		t.Fatalf("STT total %g not well below SRAM %g at low activity",
			stt.Breakdown().Total(), sram.Breakdown().Total())
	}
}
