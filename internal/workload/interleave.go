package workload

import "mobilecache/internal/trace"

// ASIDSource namespaces the *user* half of an app's address space by an
// address-space ID, leaving kernel addresses untouched. This mirrors
// the real platform: every process has its own user mappings, while
// kernel text and data are shared across all of them — which is why
// kernel blocks stay warm across app switches and user blocks do not.
type ASIDSource struct {
	src  trace.Source
	base uint64
}

// NewASIDSource wraps src, offsetting user addresses into the address
// space identified by asid (0 leaves the stream unchanged).
func NewASIDSource(src trace.Source, asid uint64) *ASIDSource {
	return &ASIDSource{src: src, base: asid << 40}
}

// Next returns the next namespaced record.
func (s *ASIDSource) Next() (trace.Access, bool) {
	a, ok := s.src.Next()
	if !ok {
		return trace.Access{}, false
	}
	if a.Domain == trace.User {
		a.Addr += s.base
		a.PC += s.base
	}
	return a, true
}

// InterleaveSource round-robins between several sources with a fixed
// scheduling quantum, modeling preemptive multitasking between apps.
// Exhausted sources are skipped; the stream ends when every source is
// exhausted.
type InterleaveSource struct {
	srcs    []trace.Source
	quantum int
	cur     int
	used    int
	done    []bool
	left    int
}

// NewInterleaveSource builds a scheduler over srcs switching every
// quantum accesses. A non-positive quantum defaults to 1.
func NewInterleaveSource(quantum int, srcs ...trace.Source) *InterleaveSource {
	if quantum <= 0 {
		quantum = 1
	}
	return &InterleaveSource{
		srcs: srcs, quantum: quantum,
		done: make([]bool, len(srcs)),
		left: len(srcs),
	}
}

// Next returns the next scheduled record.
func (s *InterleaveSource) Next() (trace.Access, bool) {
	for s.left > 0 {
		if s.done[s.cur] || s.used >= s.quantum {
			s.advance()
			continue
		}
		a, ok := s.srcs[s.cur].Next()
		if !ok {
			s.done[s.cur] = true
			s.left--
			s.advance()
			continue
		}
		s.used++
		return a, true
	}
	return trace.Access{}, false
}

func (s *InterleaveSource) advance() {
	s.used = 0
	for i := 0; i < len(s.srcs); i++ {
		s.cur = (s.cur + 1) % len(s.srcs)
		if !s.done[s.cur] {
			return
		}
	}
}

// MultiAppSession builds the standard multitasking stimulus: the named
// apps run concurrently under round-robin scheduling with distinct
// user address spaces and a shared kernel, n accesses in total.
func MultiAppSession(names []string, seed uint64, quantum, n int) (trace.Source, error) {
	var srcs []trace.Source
	for i, name := range names {
		prof, err := ProfileByName(name)
		if err != nil {
			return nil, err
		}
		phaseLen := uint64(0)
		if prof.Phases > 1 && n > 0 {
			phaseLen = uint64(n / len(names) / max(prof.Phases, 1))
		}
		gen, err := NewGenerator(prof, seed+uint64(i)*131, phaseLen)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, NewASIDSource(gen, uint64(i)+1))
	}
	return trace.NewLimitSource(NewInterleaveSource(quantum, srcs...), n), nil
}
