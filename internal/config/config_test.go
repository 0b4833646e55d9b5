package config

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mobilecache/internal/core"
	"mobilecache/internal/mem"
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
	m.Dynamic = &Dynamic{EpochAccesses: 25_000, Slack: 2}
	if err := m.Validate(); err == nil {
		t.Fatal("slack above 1 accepted")
	}
	m.Dynamic = nil
	m.Unified.SizeKB, m.Unified.Ways = 64, 1
	if err := m.Validate(); err == nil {
		t.Fatal("one-way dynamic array accepted")
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
	m.Dynamic = &Dynamic{EpochAccesses: 1234, Slack: 0.01}
	seg, err := m.Unified.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	dc := m.DynamicConfig(seg)
	if dc.EpochAccesses != 1234 || dc.Slack != 0.01 {
		t.Fatalf("overrides not applied: %+v", dc)
	}
	if def := core.DefaultDynamicConfig(seg); dc.SampleShift != def.SampleShift {
		t.Fatalf("monitor sampling shift %d, want the default %d", dc.SampleShift, def.SampleShift)
	}
	// Nil Dynamic falls back to defaults.
	m.Dynamic = nil
	dc = m.DynamicConfig(seg)
	if dc.EpochAccesses == 0 {
		t.Fatal("defaults not applied")
	}
}

// TestDynamicBlockTakenAsWritten: a zero slack in a machine's dynamic
// block runs at zero instead of the controller's default.
func TestDynamicBlockTakenAsWritten(t *testing.T) {
	m := Default()
	m.Scheme = SchemeDynamic
	m.Dynamic = &Dynamic{EpochAccesses: 25_000, Slack: 0}
	seg, err := m.Unified.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if dc := m.DynamicConfig(seg); dc.Slack != 0 || dc.EpochAccesses != 25_000 {
		t.Fatalf("dynamic block {25000, 0} converted to epoch %d, slack %g", dc.EpochAccesses, dc.Slack)
	}
}

// TestLoadRejectsZeroEpoch: a machine file whose dynamic block sets a
// zero epoch fails to load instead of running the default epoch.
func TestLoadRejectsZeroEpoch(t *testing.T) {
	m := Default()
	m.Name = "dp-zero-epoch"
	m.Scheme = SchemeDynamic
	m.Dynamic = &Dynamic{EpochAccesses: 25_000, Slack: 0.003}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("valid dynamic machine rejected: %v", err)
	}
	zero := bytes.Replace(buf.Bytes(), []byte(`"epoch_accesses": 25000`), []byte(`"epoch_accesses": 0`), 1)
	if bytes.Equal(zero, buf.Bytes()) {
		t.Fatalf("test setup: no epoch field in\n%s", buf.Bytes())
	}
	if _, err := Load(bytes.NewReader(zero)); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("a zero dynamic epoch loaded (err %v)", err)
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
	if dc.Policy != mem.RowOpenPage {
		t.Fatal("open-page policy not converted")
	}
	// The machine's access costs are the open-page model's row misses.
	if dc.LatencyCycles != 200 || dc.ReadPJ != 20000 || dc.WritePJ != 22000 {
		t.Fatalf("open-page row-miss costs lost: %+v", dc)
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
	if dc := core.DefaultDrowsyConfig(seg); dc.Segment != seg || dc.WindowCycles == 0 {
		t.Fatalf("drowsy config does not wrap the converted segment: %+v", dc)
	}
	// Drowsy mode is an SRAM technique.
	m.Unified.Tech = "stt-long"
	if err := m.Validate(); err == nil {
		t.Fatal("drowsy STT-RAM array accepted")
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

// A retired knob must not load silently: a machine file that still
// names one is rejected as an unknown field, and the error names the
// key, while the same file without it loads. The drowsy block is
// retired whole, so its keys fail on the block's own name.
func TestLoadRejectsRetiredJitterField(t *testing.T) {
	static := Default()
	static.Scheme = SchemeStatic
	static.Unified = nil
	static.User = &Segment{Name: "u", SizeKB: 512, Ways: 16, BlockBytes: 64}
	static.Kernel = &Segment{Name: "k", SizeKB: 256, Ways: 16, BlockBytes: 64}
	dynamic := Default()
	dynamic.Scheme = SchemeDynamic
	dynamic.Dynamic = &Dynamic{EpochAccesses: 25_000, Slack: 0.003}
	drowsy := Default()
	drowsy.Scheme = SchemeDrowsy
	openPage := Default()
	openPage.DRAM.Policy = "open-page"
	for _, tc := range []struct {
		m    Machine
		path string
	}{
		{Default(), "unified.retention_jitter"},
		{Default(), "base_cpi"},
		{Default(), "unified.banks"},
		{static, "user.banks"},
		{static, "kernel.banks"},
		{dynamic, "dynamic.min_ways_per_domain"},
		{dynamic, "dynamic.sample_shift"},
		{drowsy, "drowsy.window_cycles"},
		{drowsy, "drowsy.wake_cycles"},
		{drowsy, "drowsy.drowsy_leak_ratio"},
		{openPage, "dram.row_hit_cycles"},
		{openPage, "dram.row_hit_pj"},
		{openPage, "dram.banks"},
		{openPage, "dram.row_bytes"},
	} {
		t.Run(tc.path, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("control machine rejected: %v", err)
			}
			var doc map[string]any
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			// Walk to the key's parent object; the first name the saved
			// machine lacks is the one the decoder must reject.
			keys := strings.Split(tc.path, ".")
			obj, unknown := doc, ""
			for _, k := range keys[:len(keys)-1] {
				next, ok := obj[k].(map[string]any)
				if !ok {
					next = map[string]any{}
					obj[k] = next
					if unknown == "" {
						unknown = k
					}
				}
				obj = next
			}
			obj[keys[len(keys)-1]] = 1
			if unknown == "" {
				unknown = keys[len(keys)-1]
			}
			retired, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Load(bytes.NewReader(retired))
			if err == nil || !strings.Contains(err.Error(), "unknown field") || !strings.Contains(err.Error(), `"`+unknown+`"`) {
				t.Fatalf("machine naming %s: err = %v, want an unknown-field error naming %q", tc.path, err, unknown)
			}
		})
	}
}

// Load reads exactly one machine: a second object or stray bytes after
// it are an error, not silently ignored.
func TestLoadRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := Default().Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{
		`{"name": "second"} trailing garbage`,
		`{"name": "second"}`,
		`trailing garbage`,
		`]`,
	} {
		doc := buf.String() + tail
		if _, err := Load(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("machine followed by %q: err = %v, want a trailing-data error", tail, err)
		}
	}
	// Trailing whitespace is not data.
	if _, err := Load(strings.NewReader(buf.String() + "\n\t \n")); err != nil {
		t.Fatalf("machine with trailing whitespace rejected: %v", err)
	}
}
