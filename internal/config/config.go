// Package config defines the declarative, JSON-serializable description
// of a simulated machine — CPU, L1s, the L2 scheme under study, and
// DRAM — plus validation and conversion to the runtime types. The
// cmd/mcsim tool consumes these files; the experiment harness builds
// them programmatically via sim.StandardMachines.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mobilecache/internal/cache"
	"mobilecache/internal/core"
	"mobilecache/internal/energy"
	"mobilecache/internal/mem"
	"mobilecache/internal/sttram"
)

// Scheme names the L2 organization families the paper compares.
type Scheme string

const (
	// SchemeUnified is a conventional shared L2 (the baselines).
	SchemeUnified Scheme = "unified"
	// SchemeStatic is the static user/kernel partition.
	SchemeStatic Scheme = "static"
	// SchemeDynamic is the dynamic way-partitioned design.
	SchemeDynamic Scheme = "dynamic"
	// SchemeDrowsy is a unified SRAM L2 with drowsy leakage management
	// — the circuit-level alternative baseline.
	SchemeDrowsy Scheme = "drowsy"
)

// L1 describes a first-level cache.
type L1 struct {
	SizeKB     int `json:"size_kb"`
	Ways       int `json:"ways"`
	BlockBytes int `json:"block_bytes"`
}

// Segment describes one L2 array (or one side of a static partition).
type Segment struct {
	Name       string `json:"name"`
	SizeKB     int    `json:"size_kb"`
	Ways       int    `json:"ways"`
	BlockBytes int    `json:"block_bytes"`
	Policy     string `json:"policy"`  // lru, plru, random, fifo, srrip
	Tech       string `json:"tech"`    // sram, stt-short, stt-medium, stt-long
	Refresh    string `json:"refresh"` // periodic-all, dirty-only, eager-writeback
	// RetentionS, when positive, replaces the technology's default
	// retention with a parametric STT-RAM design point from
	// energy.ParamsForRetention — how the paper matches a segment's
	// retention time to its measured block lifetimes. Only valid for
	// STT-RAM technologies.
	RetentionS float64 `json:"retention_s,omitempty"`
	// RefreshLimit caps consecutive idle refreshes per line (the
	// dynamic refresh scheme); 0 = unlimited.
	RefreshLimit uint32 `json:"refresh_limit,omitempty"`
	// FaultBER injects stochastic retention faults: the probability,
	// per line fill, of a seeded thermal-tail early expiry (0 = ideal
	// cells). Requires an STT-RAM tech.
	FaultBER float64 `json:"fault_ber,omitempty"`
	// FaultSeed seeds the deterministic fault draws; runs with the
	// same seed fault identically.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
}

// Dynamic holds the dynamic-partition controller knobs.
type Dynamic struct {
	EpochAccesses uint64  `json:"epoch_accesses"`
	Slack         float64 `json:"slack"`
}

// DRAM holds the main-memory parameters.
type DRAM struct {
	LatencyCycles uint64  `json:"latency_cycles"`
	ReadPJ        float64 `json:"read_pj"`
	WritePJ       float64 `json:"write_pj"`
	// Policy selects the timing model: "" or "flat" for a single
	// latency, "open-page" for mem's row-buffer model, whose row misses
	// cost the latency and energies above.
	Policy string `json:"policy,omitempty"`
}

// Machine is a full machine description.
type Machine struct {
	Name   string `json:"name"`
	Scheme Scheme `json:"scheme"`
	// IdleEvery/IdleCycles insert an idle stretch of IdleCycles cycles
	// every IdleEvery accesses, modeling interactive think-time and
	// screen-off periods. Zero IdleEvery disables idling.
	IdleEvery  uint64 `json:"idle_every,omitempty"`
	IdleCycles uint64 `json:"idle_cycles,omitempty"`
	// Prefetch enables the L1 next-line prefetcher.
	Prefetch bool `json:"prefetch,omitempty"`

	L1I L1 `json:"l1i"`
	L1D L1 `json:"l1d"`

	// Unified is the single array for unified and dynamic schemes.
	Unified *Segment `json:"unified,omitempty"`
	// User and Kernel are the two arrays of the static scheme.
	User   *Segment `json:"user,omitempty"`
	Kernel *Segment `json:"kernel,omitempty"`
	// Dynamic configures the controller for the dynamic scheme.
	Dynamic *Dynamic `json:"dynamic,omitempty"`

	DRAM DRAM `json:"dram"`
}

// Clone returns a deep copy of the machine: the pointed-to segment and
// controller structs are duplicated, so mutating the clone (as the
// ablation experiments do) can never leak into the original. This is
// what lets sim.StandardMachines memoize its configs safely.
func (m Machine) Clone() Machine {
	out := m
	if m.Unified != nil {
		seg := *m.Unified
		out.Unified = &seg
	}
	if m.User != nil {
		seg := *m.User
		out.User = &seg
	}
	if m.Kernel != nil {
		seg := *m.Kernel
		out.Kernel = &seg
	}
	if m.Dynamic != nil {
		d := *m.Dynamic
		out.Dynamic = &d
	}
	return out
}

// Default returns the baseline machine the paper's comparisons are
// normalized to: 1MB 16-way SRAM unified L2.
func Default() Machine {
	return Machine{
		Name:   "baseline-sram",
		Scheme: SchemeUnified,
		L1I:    L1{SizeKB: 32, Ways: 2, BlockBytes: 64},
		L1D:    L1{SizeKB: 32, Ways: 4, BlockBytes: 64},
		Unified: &Segment{
			Name: "L2", SizeKB: 1024, Ways: 16, BlockBytes: 64,
			Policy: "lru", Tech: "sram", Refresh: "dirty-only",
		},
		DRAM: DRAM{LatencyCycles: 200, ReadPJ: 20_000, WritePJ: 22_000},
	}
}

// Validate checks the machine description.
func (m Machine) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("config: machine needs a name")
	}
	for _, l1 := range []struct {
		label string
		cfg   L1
	}{{"l1i", m.L1I}, {"l1d", m.L1D}} {
		if l1.cfg.SizeKB <= 0 || l1.cfg.Ways <= 0 || l1.cfg.BlockBytes <= 0 {
			return fmt.Errorf("config %s: %s has non-positive geometry", m.Name, l1.label)
		}
	}
	if m.DRAM.LatencyCycles == 0 {
		return fmt.Errorf("config %s: DRAM latency must be positive", m.Name)
	}
	switch m.DRAM.Policy {
	case "", "flat", "open-page":
	default:
		return fmt.Errorf("config %s: unknown DRAM policy %q", m.Name, m.DRAM.Policy)
	}
	switch m.Scheme {
	case SchemeUnified:
		if m.Unified == nil {
			return fmt.Errorf("config %s: unified scheme needs a unified segment", m.Name)
		}
		if _, err := m.Unified.ToCore(); err != nil {
			return err
		}
	case SchemeStatic:
		if m.User == nil || m.Kernel == nil {
			return fmt.Errorf("config %s: static scheme needs user and kernel segments", m.Name)
		}
		if _, err := m.User.ToCore(); err != nil {
			return err
		}
		if _, err := m.Kernel.ToCore(); err != nil {
			return err
		}
	case SchemeDynamic:
		if m.Unified == nil {
			return fmt.Errorf("config %s: dynamic scheme needs a unified segment", m.Name)
		}
		seg, err := m.Unified.ToCore()
		if err != nil {
			return err
		}
		dc := m.DynamicConfig(seg)
		if err := dc.Validate(); err != nil {
			return err
		}
	case SchemeDrowsy:
		if m.Unified == nil {
			return fmt.Errorf("config %s: drowsy scheme needs a unified segment", m.Name)
		}
		seg, err := m.Unified.ToCore()
		if err != nil {
			return err
		}
		if err := core.DefaultDrowsyConfig(seg).Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("config %s: unknown scheme %q", m.Name, m.Scheme)
	}
	return nil
}

// ToCore converts a Segment to the runtime SegmentConfig.
func (s Segment) ToCore() (core.SegmentConfig, error) {
	pol := cache.LRU
	if s.Policy != "" {
		var err error
		pol, err = cache.ParsePolicy(s.Policy)
		if err != nil {
			return core.SegmentConfig{}, err
		}
	}
	tech := energy.SRAM
	if s.Tech != "" {
		var err error
		tech, err = energy.ParseTech(s.Tech)
		if err != nil {
			return core.SegmentConfig{}, err
		}
	}
	ref := sttram.DirtyOnly
	if s.Refresh != "" {
		var err error
		ref, err = sttram.ParseRefreshPolicy(s.Refresh)
		if err != nil {
			return core.SegmentConfig{}, err
		}
	}
	cfg := core.SegmentConfig{
		Name: s.Name, SizeBytes: uint64(s.SizeKB) * 1024, Ways: s.Ways,
		BlockBytes: s.BlockBytes, Policy: pol, Tech: tech, Refresh: ref,
		RefreshLimit: s.RefreshLimit, FaultBER: s.FaultBER, FaultSeed: s.FaultSeed,
	}
	if s.RetentionS > 0 {
		if !tech.IsSTT() {
			return core.SegmentConfig{}, fmt.Errorf("config: segment %s: retention_s requires an STT-RAM tech, got %s", s.Name, tech)
		}
		params := energy.ParamsForRetention(s.RetentionS)
		cfg.ParamsOverride = &params
	}
	return cfg, cfg.Validate()
}

// DynamicConfig converts the dynamic knobs for the given segment. A
// dynamic block is taken as written — a zero slack runs at zero, and a
// zero epoch fails validation — and a machine without one runs the
// controller's defaults.
func (m Machine) DynamicConfig(seg core.SegmentConfig) core.DynamicConfig {
	dc := core.DefaultDynamicConfig(seg)
	if m.Dynamic != nil {
		dc.EpochAccesses = m.Dynamic.EpochAccesses
		dc.Slack = m.Dynamic.Slack
	}
	return dc
}

// L1Config converts an L1 description.
func (l L1) L1Config(name string) mem.L1Config {
	return mem.L1Config{
		Name: name, SizeBytes: uint64(l.SizeKB) * 1024, Ways: l.Ways,
		BlockBytes: l.BlockBytes,
	}
}

// DRAMConfig converts the DRAM description.
func (m Machine) DRAMConfig() mem.DRAMConfig {
	cfg := mem.DRAMConfig{
		LatencyCycles: m.DRAM.LatencyCycles,
		ReadPJ:        m.DRAM.ReadPJ,
		WritePJ:       m.DRAM.WritePJ,
	}
	if m.DRAM.Policy == "open-page" {
		cfg.Policy = mem.RowOpenPage
	}
	return cfg
}

// Load reads and validates a machine description from JSON.
func Load(r io.Reader) (Machine, error) {
	var m Machine
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Machine{}, fmt.Errorf("config: decoding: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		return Machine{}, fmt.Errorf("config: trailing data after the machine object (next token %v, err %v)", tok, err)
	}
	if err := m.Validate(); err != nil {
		return Machine{}, err
	}
	return m, nil
}

// LoadFile reads a machine description from a file.
func LoadFile(path string) (Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return Machine{}, err
	}
	defer f.Close()
	return Load(f)
}

// Save writes the machine as indented JSON.
func (m Machine) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
