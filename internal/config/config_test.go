package config

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default machine invalid: %v", err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
	}{
		{"empty name", func(m *Machine) { m.Name = "" }},
		{"zero cpi", func(m *Machine) { m.BaseCPI = 0 }},
		{"bad l1i", func(m *Machine) { m.L1I.Ways = 0 }},
		{"bad l1d", func(m *Machine) { m.L1D.SizeKB = 0 }},
		{"zero dram latency", func(m *Machine) { m.DRAM.LatencyCycles = 0 }},
		{"unified missing segment", func(m *Machine) { m.Unified = nil }},
		{"bad scheme", func(m *Machine) { m.Scheme = "exotic" }},
		{"bad tech", func(m *Machine) { m.Unified.Tech = "pcm" }},
		{"bad policy", func(m *Machine) { m.Unified.Policy = "mru" }},
		{"bad refresh", func(m *Machine) { m.Unified.Refresh = "never" }},
		{"bad geometry", func(m *Machine) { m.Unified.SizeKB = 7 }},
	}
	for _, tc := range cases {
		m := Default()
		tc.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestStaticSchemeValidation(t *testing.T) {
	m := Default()
	m.Scheme = SchemeStatic
	m.Unified = nil
	if err := m.Validate(); err == nil {
		t.Fatal("static without segments accepted")
	}
	m.User = &Segment{Name: "u", SizeKB: 512, Ways: 16, BlockBytes: 64}
	m.Kernel = &Segment{Name: "k", SizeKB: 256, Ways: 16, BlockBytes: 64}
	if err := m.Validate(); err != nil {
		t.Fatalf("valid static rejected: %v", err)
	}
}

func TestDynamicSchemeValidation(t *testing.T) {
	m := Default()
	m.Scheme = SchemeDynamic
	if err := m.Validate(); err != nil {
		t.Fatalf("valid dynamic rejected: %v", err)
	}
	m.Dynamic = &Dynamic{MinWaysPerDomain: 99}
	if err := m.Validate(); err == nil {
		t.Fatal("infeasible dynamic knobs accepted")
	}
}

func TestSegmentToCoreDefaults(t *testing.T) {
	s := Segment{Name: "x", SizeKB: 256, Ways: 8, BlockBytes: 64}
	cfg, err := s.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SizeBytes != 256*1024 || cfg.Ways != 8 {
		t.Fatalf("geometry wrong: %+v", cfg)
	}
	// Defaults: LRU, SRAM, dirty-only refresh.
	if cfg.Policy != 0 || cfg.Tech != 0 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestDynamicConfigOverrides(t *testing.T) {
	m := Default()
	m.Scheme = SchemeDynamic
	m.Dynamic = &Dynamic{EpochAccesses: 1234, Slack: 0.01, MinWaysPerDomain: 2, SampleShift: 3}
	seg, err := m.Unified.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	dc := m.DynamicConfig(seg)
	if dc.EpochAccesses != 1234 || dc.Slack != 0.01 || dc.MinWaysPerDomain != 2 || dc.SampleShift != 3 {
		t.Fatalf("overrides not applied: %+v", dc)
	}
	// Nil Dynamic falls back to defaults.
	m.Dynamic = nil
	dc = m.DynamicConfig(seg)
	if dc.EpochAccesses == 0 {
		t.Fatal("defaults not applied")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := Default()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.Scheme != m.Scheme || got.Unified.SizeKB != m.Unified.SizeKB {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"name":"x","typo_field":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"name":""}`)); err == nil {
		t.Fatal("invalid machine accepted")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/machine.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestL1Config(t *testing.T) {
	l := L1{SizeKB: 32, Ways: 4, BlockBytes: 64}
	c := l.L1Config("L1D")
	if c.Name != "L1D" || c.SizeBytes != 32*1024 || c.Ways != 4 || c.BlockBytes != 64 {
		t.Fatalf("L1D config wrong: %+v", c)
	}
	if ci := l.L1Config("L1I"); ci.Name != "L1I" {
		t.Fatalf("L1I config named %q, want L1I", ci.Name)
	}
}

func TestDRAMConfig(t *testing.T) {
	m := Default()
	dc := m.DRAMConfig()
	if dc.LatencyCycles != 200 || dc.ReadPJ != 20000 {
		t.Fatalf("DRAM config wrong: %+v", dc)
	}
}

func TestDRAMConfigOpenPage(t *testing.T) {
	m := Default()
	m.DRAM.Policy = "open-page"
	dc := m.DRAMConfig()
	if dc.Policy == 0 {
		t.Fatal("open-page policy not converted")
	}
	// Zero row fields take the open-page defaults.
	if dc.RowHitCycles == 0 || dc.RowHitPJ == 0 {
		t.Fatalf("open-page defaults not applied: %+v", dc)
	}
	// Explicit values win.
	m.DRAM.RowHitCycles = 77
	m.DRAM.RowHitPJ = 99
	m.DRAM.Banks = 4
	m.DRAM.RowBytes = 4096
	dc = m.DRAMConfig()
	if dc.RowHitCycles != 77 || dc.RowHitPJ != 99 || dc.Banks != 4 || dc.RowBytes != 4096 {
		t.Fatalf("open-page overrides lost: %+v", dc)
	}
	// Bad policy rejected at validation.
	m.DRAM.Policy = "closed-loop"
	if err := m.Validate(); err == nil {
		t.Fatal("bad DRAM policy accepted")
	}
}

func TestDrowsyConfigConversion(t *testing.T) {
	m := Default()
	m.Scheme = SchemeDrowsy
	if err := m.Validate(); err != nil {
		t.Fatalf("drowsy default invalid: %v", err)
	}
	seg, err := m.Unified.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	dc := m.DrowsyConfig(seg)
	if dc.WindowCycles == 0 || dc.DrowsyLeakRatio == 0 || dc.PeripheralFraction == 0 {
		t.Fatalf("drowsy defaults not applied: %+v", dc)
	}
	m.Drowsy = &Drowsy{WindowCycles: 123, WakeCycles: 9, DrowsyLeakRatio: 0.5}
	dc = m.DrowsyConfig(seg)
	if dc.WindowCycles != 123 || dc.WakeCycles != 9 || dc.DrowsyLeakRatio != 0.5 {
		t.Fatalf("drowsy overrides lost: %+v", dc)
	}
	// Missing unified segment rejected.
	m.Unified = nil
	if err := m.Validate(); err == nil {
		t.Fatal("drowsy without segment accepted")
	}
}

func TestSegmentRetentionValidation(t *testing.T) {
	s := Segment{Name: "x", SizeKB: 256, Ways: 8, BlockBytes: 64, Tech: "sram", RetentionS: 1e-3}
	if _, err := s.ToCore(); err == nil {
		t.Fatal("retention override on SRAM accepted")
	}
	s.Tech = "stt-short"
	cfg, err := s.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ParamsOverride == nil || cfg.ParamsOverride.RetentionSeconds != 1e-3 {
		t.Fatalf("retention override not applied: %+v", cfg.ParamsOverride)
	}
}

func TestSegmentBanksConversion(t *testing.T) {
	s := Segment{Name: "x", SizeKB: 256, Ways: 8, BlockBytes: 64, Banks: 8}
	cfg, err := s.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Banks != 8 {
		t.Fatalf("banks lost: %+v", cfg)
	}
}

func TestSegmentFaultValidation(t *testing.T) {
	// Faults on SRAM are meaningless and must be rejected.
	s := Segment{Name: "x", SizeKB: 256, Ways: 8, BlockBytes: 64, Tech: "sram", FaultBER: 1e-4}
	if _, err := s.ToCore(); err == nil {
		t.Fatal("fault BER on SRAM accepted")
	}
	s.Tech = "stt-short"
	s.FaultBER = -0.1
	if _, err := s.ToCore(); err == nil {
		t.Fatal("negative fault BER accepted")
	}
	s.FaultBER = 1.5
	if _, err := s.ToCore(); err == nil {
		t.Fatal("fault BER above 1 accepted")
	}
	s.FaultBER = 1e-4
	s.FaultSeed = 77
	cfg, err := s.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FaultBER != 1e-4 || cfg.FaultSeed != 77 {
		t.Fatalf("fault knobs lost in conversion: %+v", cfg)
	}
}

func TestFaultKnobsJSONRoundTrip(t *testing.T) {
	m := Default()
	m.Unified.Tech = "stt-short"
	m.Unified.FaultBER = 5e-4
	m.Unified.FaultSeed = 9
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Unified.FaultBER != 5e-4 || back.Unified.FaultSeed != 9 {
		t.Fatalf("fault knobs lost in JSON round trip: %+v", back.Unified)
	}
}

// The retired per-line retention derate must not load silently: a
// machine file that still names it is rejected as an unknown field,
// while the same file without the key loads.
func TestLoadRejectsRetiredJitterField(t *testing.T) {
	var buf bytes.Buffer
	if err := Default().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("control machine rejected: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	doc["unified"].(map[string]any)["retention_jitter"] = 0.5
	withJitter, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(withJitter))
	if err == nil || !strings.Contains(err.Error(), "retention_jitter") {
		t.Fatalf("machine naming retention_jitter: err = %v, want an unknown-field error naming it", err)
	}
}
