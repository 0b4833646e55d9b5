// Package trace defines the memory-access trace format that drives the
// simulator. A trace is a sequence of Access records; each record
// describes one memory operation of the traced program together with
// the privilege domain (user or OS kernel) it executed in — the
// attribute the paper's partitioned cache designs key on — and the
// number of non-memory instructions executed since the previous record,
// which the timing model uses to reconstruct instruction counts.
package trace

import (
	"fmt"
)

// Domain identifies the privilege level an access executed in. The
// paper's central observation is that interactive mobile workloads
// issue >40% of their L2 accesses from kernel code, so every access is
// tagged at the source.
type Domain uint8

const (
	// User marks accesses issued by application (unprivileged) code.
	User Domain = iota
	// Kernel marks accesses issued by OS kernel (privileged) code.
	Kernel
	// NumDomains is the number of distinct domains.
	NumDomains = 2
)

// String returns "user" or "kernel".
func (d Domain) String() string {
	switch d {
	case User:
		return "user"
	case Kernel:
		return "kernel"
	default:
		return fmt.Sprintf("domain(%d)", uint8(d))
	}
}

// Valid reports whether d is one of the defined domains.
func (d Domain) Valid() bool { return d == User || d == Kernel }

// Op is the kind of memory operation an Access performs.
type Op uint8

const (
	// Load is a data read.
	Load Op = iota
	// Store is a data write.
	Store
	// Ifetch is an instruction fetch.
	Ifetch
	// NumOps is the number of distinct operation kinds.
	NumOps = 3
)

// String returns a short lower-case name for the op.
func (o Op) String() string {
	switch o {
	case Load:
		return "load"
	case Store:
		return "store"
	case Ifetch:
		return "ifetch"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Valid reports whether o is one of the defined ops.
func (o Op) Valid() bool { return o <= Ifetch }

// IsWrite reports whether the op modifies memory.
func (o Op) IsWrite() bool { return o == Store }

// Access is one record of a trace: a single memory operation.
type Access struct {
	// Addr is the virtual byte address accessed.
	Addr uint64
	// PC is the program counter of the instruction issuing the access.
	PC uint64
	// Gap is the number of instructions executed since the previous
	// Access that did not themselves access memory. The timing model
	// charges Gap+1 instructions per record.
	Gap uint32
	// Op is the operation kind.
	Op Op
	// Domain is the privilege domain the access executed in.
	Domain Domain
}

// Validate reports an error when the record holds out-of-range enum
// values (for instance after decoding a corrupt trace).
func (a Access) Validate() error {
	if !a.Op.Valid() {
		return fmt.Errorf("trace: invalid op %d", a.Op)
	}
	if !a.Domain.Valid() {
		return fmt.Errorf("trace: invalid domain %d", a.Domain)
	}
	return nil
}

// Instructions is the number of instructions this record accounts for:
// the access itself plus the non-memory gap preceding it.
func (a Access) Instructions() uint64 { return uint64(a.Gap) + 1 }

// Source produces Access records one at a time. Next reports ok=false
// when the stream is exhausted. Implementations are not required to be
// restartable.
type Source interface {
	Next() (Access, bool)
}

// SliceSource adapts a materialized []Access to the Source interface.
type SliceSource struct {
	recs []Access
	pos  int
}

// NewSliceSource wraps recs; the slice is not copied.
func NewSliceSource(recs []Access) *SliceSource {
	return &SliceSource{recs: recs}
}

// Next returns the next record.
func (s *SliceSource) Next() (Access, bool) {
	if s.pos >= len(s.recs) {
		return Access{}, false
	}
	a := s.recs[s.pos]
	s.pos++
	return a, true
}

// Collect drains a source into a slice, stopping after max records
// (max <= 0 means no limit).
func Collect(src Source, max int) []Access {
	var out []Access
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		a, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// LimitSource truncates a source after n records.
type LimitSource struct {
	src  Source
	left int
}

// NewLimitSource wraps src, yielding at most n records.
func NewLimitSource(src Source, n int) *LimitSource {
	return &LimitSource{src: src, left: n}
}

// Next returns the next record while the limit has not been reached.
func (l *LimitSource) Next() (Access, bool) {
	if l.left <= 0 {
		return Access{}, false
	}
	a, ok := l.src.Next()
	if ok {
		l.left--
	}
	return a, ok
}

// Summary aggregates whole-trace statistics; Summarize fills one in a
// single pass.
type Summary struct {
	Records      uint64
	Instructions uint64
	ByDomain     [NumDomains]uint64
	ByOp         [NumOps]uint64
	Stores       uint64
	MinAddr      uint64
	MaxAddr      uint64
}

// KernelShare is the fraction of records issued from kernel code.
func (s Summary) KernelShare() float64 {
	if s.Records == 0 {
		return 0
	}
	return float64(s.ByDomain[Kernel]) / float64(s.Records)
}

// WriteShare is the fraction of records that are stores.
func (s Summary) WriteShare() float64 {
	if s.Records == 0 {
		return 0
	}
	return float64(s.Stores) / float64(s.Records)
}

// Summarize drains src and aggregates its statistics.
func Summarize(src Source) Summary {
	var s Summary
	first := true
	for {
		a, ok := src.Next()
		if !ok {
			return s
		}
		s.Records++
		s.Instructions += a.Instructions()
		if a.Domain.Valid() {
			s.ByDomain[a.Domain]++
		}
		if a.Op.Valid() {
			s.ByOp[a.Op]++
		}
		if a.Op.IsWrite() {
			s.Stores++
		}
		if first || a.Addr < s.MinAddr {
			s.MinAddr = a.Addr
		}
		if first || a.Addr > s.MaxAddr {
			s.MaxAddr = a.Addr
		}
		first = false
	}
}
