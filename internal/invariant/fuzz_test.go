package invariant

import (
	"encoding/binary"
	"math"
	"testing"

	"mobilecache/internal/trace"
)

// FuzzAuditReport feeds the auditor arbitrary counter combinations —
// including the NaN/Inf and max-uint64 corners a real miscounting bug
// could produce — and asserts it always classifies, never panics, and
// stays consistent with its error constructor.
func FuzzAuditReport(f *testing.F) {
	// Seeds: all-zero, a handful of interesting bit patterns, and a
	// buffer long enough to populate every field.
	f.Add([]byte{})
	f.Add(make([]byte, 256))
	pat := make([]byte, 256)
	for i := range pat {
		pat[i] = byte(i * 37)
	}
	f.Add(pat)
	nan := make([]byte, 256)
	binary.LittleEndian.PutUint64(nan[200:], math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(nan[208:], math.Float64bits(math.Inf(-1)))
	f.Add(nan)

	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		nextU64 := func() uint64 {
			if pos+8 > len(data) {
				pos = 0 // wrap: short inputs still exercise all fields
			}
			if len(data) < 8 {
				return 0
			}
			v := binary.LittleEndian.Uint64(data[pos:])
			pos += 8
			return v
		}
		nextF64 := func() float64 { return math.Float64frombits(nextU64()) }

		var r Report
		r.Machine, r.Workload = "fuzz", "fuzz"
		for d := 0; d < trace.NumDomains; d++ {
			r.L2.Accesses[d] = nextU64()
			r.L2.Hits[d] = nextU64()
			r.L2.Misses[d] = nextU64()
			r.CPU.CyclesByDomain[d] = nextU64()
		}
		r.L2.Evictions = nextU64()
		r.L2.InterferenceEvictions = nextU64()
		r.L2.Writebacks = nextU64()
		r.L2.ExpiryInvalidations = nextU64()
		r.L2.Refreshes = nextU64()
		r.L2.EagerWritebacks = nextU64()
		r.L2.CleanExpiries = nextU64()
		r.L2.DirtyExpiries = nextU64()
		r.L2.FaultExpiries = nextU64()
		r.CPU.Instructions = nextU64()
		r.CPU.Cycles = nextU64()
		r.CPU.Accesses = nextU64()
		r.CPU.StallCycles = nextU64()
		r.CPU.IdleCycles = nextU64()
		r.L2InstalledBytes = nextU64()
		r.L2PoweredBytes = nextU64()
		r.DRAMReads = nextU64()
		r.DRAMWrites = nextU64()
		for _, bd := range []*float64{
			&r.Energy.L1I.ReadJ, &r.Energy.L1I.WriteJ, &r.Energy.L1I.LeakageJ, &r.Energy.L1I.RefreshJ,
			&r.Energy.L1D.ReadJ, &r.Energy.L1D.WriteJ, &r.Energy.L1D.LeakageJ, &r.Energy.L1D.RefreshJ,
			&r.Energy.L2.ReadJ, &r.Energy.L2.WriteJ, &r.Energy.L2.LeakageJ, &r.Energy.L2.RefreshJ,
			&r.Energy.DRAMJ,
		} {
			*bd = nextF64()
		}

		var a Auditor
		vs := a.Check(r) // must not panic on any input
		if len(vs) > 0 && (&Error{Machine: r.Machine, Workload: r.Workload, Violation: vs}).Error() == "" {
			t.Fatal("violating report renders an empty error")
		}
		for _, v := range vs {
			if v.Check == "" || v.Detail == "" {
				t.Fatalf("empty violation fields: %+v", v)
			}
		}
	})
}
