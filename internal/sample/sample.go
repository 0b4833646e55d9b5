// Package sample implements set-sampled fast simulation: instead of
// replaying a workload against every set of every cache, a run
// simulates a power-of-two fraction of the sets and statistically
// scales the counters back to full-cache estimates. Per-cell replay
// cost drops near-linearly in the sampling factor — the standard
// fast-estimation technique behind large design-space explorations.
//
// # Selection
//
// Selection is a pure function of the low GroupBits bits of the block
// index, addr >> log2(blockBytes). Those bits are shared by the set
// index of every cache level with at least NumGroups sets (the L1D's
// 128 sets are the smallest standard geometry), so one selection
// decision is consistent across the whole hierarchy: a selected block
// maps to a selected set at every level, and a non-selected block maps
// to no selected set anywhere. Selected sets keep their true index —
// tag and set arithmetic are unchanged — and non-selected accesses are
// filtered out of the replay stream before any cache sees them.
//
// Two selection modes exist. The default keeps the groups whose index
// is a multiple of the factor (low-bit selection); Hash mode instead
// keeps the groups a fixed pseudo-random permutation maps onto
// multiples of the factor, which decorrelates selection from strided
// address patterns that could otherwise concentrate in (or dodge) the
// low-bit subset.
//
// # Scaling
//
// A sampled run compresses uniformly: the replay stream keeps 1/Factor
// of the records (dropped records surrender their instruction gaps),
// so simulated time, event counts and energy all shrink by the factor,
// and time-denominated machine constants (retention, refresh, drowsy
// windows, idle cadence) are divided by the factor to match the
// compressed clock. Scaling every counter and every energy bucket
// uniformly by the factor then yields full-run estimates while
// preserving the simulator's exact integer conservation laws — which is
// why sampled runs still pass the strict invariant audit.
package sample

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

const (
	// GroupBits is the number of low block-index bits selection keys
	// on. 1<<GroupBits must not exceed the set count of any cache the
	// sampled machine contains.
	GroupBits = 7
	// NumGroups is the number of distinct selection groups.
	NumGroups = 1 << GroupBits
	// MaxFactor is the coarsest sampling factor: one group.
	MaxFactor = NumGroups
)

// Spec names one sampling configuration: simulate 1/Factor of the
// sets, selected by low index bits or by the mixed-hash permutation.
// The zero Spec (and Factor 1) means full simulation.
type Spec struct {
	// Factor is the sampling denominator: 1/Factor of the sets are
	// simulated. Must be a power of two in [1, MaxFactor]; 0 is treated
	// as 1 (sampling off).
	Factor int
	// Hash selects permuted (stride-resistant) group selection instead
	// of low-bit selection. Irrelevant at Factor <= 1.
	Hash bool
}

// Norm maps the zero value's Factor 0 to the explicit 1.
func (s Spec) Norm() Spec {
	if s.Factor == 0 {
		s.Factor = 1
	}
	return s
}

// Enabled reports whether the spec actually samples (Factor > 1).
func (s Spec) Enabled() bool { return s.Factor > 1 }

// Validate reports spec errors. Factor 0 (unset) is valid.
func (s Spec) Validate() error {
	f := s.Factor
	if f == 0 {
		return nil
	}
	if f < 0 || f&(f-1) != 0 {
		return fmt.Errorf("sample: factor 1/%d is not a power of two", f)
	}
	if f > MaxFactor {
		return fmt.Errorf("sample: factor 1/%d is finer than the %d selection groups (max 1/%d)", f, NumGroups, MaxFactor)
	}
	return nil
}

// String renders the canonical flag spelling: "1/8", "hash:1/8",
// "1/1" for full simulation.
func (s Spec) String() string {
	s = s.Norm()
	if s.Enabled() && s.Hash {
		return fmt.Sprintf("hash:1/%d", s.Factor)
	}
	return fmt.Sprintf("1/%d", s.Factor)
}

// Parse reads a -sample flag value: "1/8" or plain "8", optionally
// prefixed "hash:" for permuted selection. The factor must be a
// positive power of two no finer than 1/MaxFactor.
func Parse(v string) (Spec, error) {
	var s Spec
	raw := strings.TrimSpace(v)
	body := raw
	if rest, ok := strings.CutPrefix(body, "hash:"); ok {
		s.Hash = true
		body = rest
	}
	if rest, ok := strings.CutPrefix(body, "1/"); ok {
		body = rest
	}
	f, err := strconv.Atoi(body)
	if err != nil {
		return Spec{}, fmt.Errorf("sample: %q is not a sampling factor (want \"1/8\", \"8\" or \"hash:1/8\")", raw)
	}
	if f < 1 {
		return Spec{}, fmt.Errorf("sample: factor 1/%d must be at least 1/1", f)
	}
	s.Factor = f
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Selector is a compiled Spec: a bitmask over the NumGroups selection
// groups plus the block geometry that maps addresses onto groups. One
// selector serves every cache level of a machine (the levels must
// share the block size the selector was built with).
type Selector struct {
	spec       Spec
	blockShift uint
	mask       [NumGroups / 64]uint64
	// rank[g] is g's position among the selected groups in ascending
	// group order, or -1 when g is not selected — the dense live-set
	// numbering sampled shadow directories index by.
	rank [NumGroups]int16
	nsel int
}

// NewSelector compiles a spec for caches with the given block size.
func NewSelector(spec Spec, blockBytes int) (*Selector, error) {
	spec = spec.Norm()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("sample: block size %d must be a positive power of two", blockBytes)
	}
	sel := &Selector{spec: spec, blockShift: uint(bits.TrailingZeros(uint(blockBytes)))}
	perm := identityPerm()
	if spec.Hash && spec.Enabled() {
		perm = hashPerm()
	}
	f := uint(spec.Factor)
	for g := 0; g < NumGroups; g++ {
		sel.rank[g] = -1
		if uint(perm[g])&(f-1) == 0 {
			sel.mask[g>>6] |= 1 << (uint(g) & 63)
			sel.rank[g] = int16(sel.nsel)
			sel.nsel++
		}
	}
	return sel, nil
}

// identityPerm selects groups by their own low bits.
func identityPerm() [NumGroups]uint8 {
	var p [NumGroups]uint8
	for i := range p {
		p[i] = uint8(i)
	}
	return p
}

// hashPerm is a fixed Fisher-Yates permutation of the groups, driven
// by a splitmix64 stream from a constant seed. A genuine permutation
// is required: an affine map (g*odd+c mod NumGroups) leaves the low
// output bits a function of the low input bits alone, which collapses
// "hash" selection back into low-bit selection.
func hashPerm() [NumGroups]uint8 {
	p := identityPerm()
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := NumGroups - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Spec returns the spec the selector was compiled from.
func (sel *Selector) Spec() Spec { return sel.spec }

// Factor returns the sampling denominator.
func (sel *Selector) Factor() int { return sel.spec.Factor }

// Groups reports how many of the NumGroups groups are selected.
func (sel *Selector) Groups() int { return sel.nsel }

// BlockBytes returns the block size the selector maps addresses with.
func (sel *Selector) BlockBytes() int { return 1 << sel.blockShift }

// SelectsAddr reports whether addr's block falls in a selected group.
// This is the replay hot-path test: shift, mask, bit probe.
func (sel *Selector) SelectsAddr(addr uint64) bool {
	g := (addr >> sel.blockShift) & (NumGroups - 1)
	return sel.mask[g>>6]>>(g&63)&1 != 0
}

// GroupRank returns g's dense index among the selected groups (in
// ascending group order), or -1 when g is not selected.
func (sel *Selector) GroupRank(g int) int {
	return int(sel.rank[g&(NumGroups-1)])
}

// LiveSets returns how many of a cache's sets receive traffic under
// this selector. sets must be a power-of-two multiple of NumGroups —
// the geometry sim.BuildSampled validates.
func (sel *Selector) LiveSets(sets int) int {
	return (sets >> GroupBits) * sel.nsel
}
