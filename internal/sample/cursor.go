package sample

import "mobilecache/internal/trace"

// fillLen is the staging-buffer size for filtering packed cursors:
// large enough to amortize the bulk coded-width decode, small enough
// to stay resident in L1.
const fillLen = 512

// maxRecordInstr caps how many instructions a single rewritten record
// may carry (Gap is a uint32, and the record itself counts as one).
const maxRecordInstr = int64(1) << 32

// Source filters a replay stream down to the selected sets: accesses
// whose blocks fall outside the selected groups are dropped before any
// cache sees them. The instruction gaps of dropped records are NOT
// discarded — they are redistributed onto the surviving records at
// 1/Factor, so the sampled clock advances by totalInstructions/Factor
// regardless of how unevenly the workload's references spread over the
// selected groups. Reference counts per set can be heavily skewed
// (a few hot blocks dominate L1 traffic), and charging only the
// selected records' own gaps would skew simulated time — and with it
// every leakage and retention account — by the same ratio. The
// integer carry makes the redistribution exact up to the trailing
// remainder, and at factor 1 it reduces to the identity (every record
// keeps its own gap), which keeps unsampled replay bit-identical.
//
// Stats counts the records a Source has consumed so far, split by op
// class: Seen covers every raw record, Kept only the selected ones.
// The per-class Seen/Kept ratio is the measured popularity bias of the
// selected groups for that reference stream — the report scaler uses
// it to correct reference-proportional (L1 dynamic) energy, which a
// nominal 1/Factor extrapolation would skew whenever hot blocks
// cluster in (or avoid) the selected groups.
type Stats struct {
	Seen [trace.NumOps]uint64
	Kept [trace.NumOps]uint64
}

// Ratio is the full-to-kept record ratio for one op class — the
// unbiased scale factor for costs charged once per reference of that
// class. When the class was never kept (or never seen) it falls back
// to the nominal factor f.
func (st Stats) Ratio(op trace.Op, f int) float64 {
	if int(op) >= trace.NumOps || st.Kept[op] == 0 {
		return float64(f)
	}
	return float64(st.Seen[op]) / float64(st.Kept[op])
}

// TotalRatio is the full-to-kept record ratio over every op class —
// the unbiased scale factor for per-reference counts (the report's
// access count). For a cold run it reconstructs the full record count
// exactly: kept x (seen/kept) = seen, and the filter saw every raw
// record. Falls back to the nominal factor f when nothing was kept.
func (st Stats) TotalRatio(f int) float64 {
	var seen, kept uint64
	for op := 0; op < trace.NumOps; op++ {
		seen += st.Seen[op]
		kept += st.Kept[op]
	}
	if kept == 0 {
		return float64(f)
	}
	return float64(seen) / float64(kept)
}

// Source implements trace.FrameSource, the contract the CPU replays
// through, and additionally exposes the bulk Decode its DecodeFrame
// filters with, with specialized fill paths for the two
// zero-allocation cursor types.
type Source struct {
	sel    *Selector
	slice  *trace.SliceCursor
	packed *trace.Cursor
	src    trace.Source
	buf    []trace.Access
	// frame stages the kept records of one replay frame for the
	// precompute; sized on first use.
	frame  []trace.Access
	factor int64
	// carry accumulates instructions seen (selected and dropped) that
	// have not yet been charged to an emitted record. It can run
	// negative: a selected record always charges at least one
	// instruction, and the debt is repaid by later gaps.
	carry int64
	stats Stats
}

// NewSource wraps src, keeping only accesses sel selects.
func NewSource(sel *Selector, src trace.Source) *Source {
	s := &Source{sel: sel, src: src, factor: int64(sel.Factor())}
	switch c := src.(type) {
	case *trace.SliceCursor:
		s.slice = c
	case *trace.Cursor:
		s.packed = c
		s.buf = make([]trace.Access, fillLen)
	}
	return s
}

// Stats returns the seen/kept record counts consumed so far.
func (s *Source) Stats() Stats { return s.stats }

// emit folds a selected record's own instructions into the carry and
// rewrites its gap to the compressed share. The caller must pass a
// copy — cursor batches alias the shared trace arena.
func (s *Source) emit(a trace.Access) trace.Access {
	s.carry += int64(a.Gap) + 1
	if int(a.Op) < trace.NumOps {
		s.stats.Seen[a.Op]++
		s.stats.Kept[a.Op]++
	}
	g := s.carry / s.factor
	if g < 1 {
		g = 1
	} else if g > maxRecordInstr {
		g = maxRecordInstr
	}
	s.carry -= g * s.factor
	a.Gap = uint32(g - 1)
	return a
}

// drop accounts a non-selected record: its instructions feed the
// carry, and it is tallied as seen for the bias ratios.
func (s *Source) drop(a trace.Access) {
	s.carry += int64(a.Gap) + 1
	if int(a.Op) < trace.NumOps {
		s.stats.Seen[a.Op]++
	}
}

// Decode fills dst with the next selected accesses, returning how many
// were produced; fewer than len(dst) only at end of trace.
func (s *Source) Decode(dst []trace.Access) int {
	n := 0
	switch {
	case s.slice != nil:
		// Zero-copy path: filter straight out of the resident record
		// slice. Pull at most the remaining capacity per round so the
		// cursor never advances past records dst has no room for.
		for n < len(dst) {
			batch := s.slice.Batch(len(dst) - n)
			if len(batch) == 0 {
				return n
			}
			for i := range batch {
				if s.sel.SelectsAddr(batch[i].Addr) {
					dst[n] = s.emit(batch[i])
					n++
				} else {
					s.drop(batch[i])
				}
			}
		}
	case s.packed != nil:
		for n < len(dst) {
			want := len(dst) - n
			if want > len(s.buf) {
				want = len(s.buf)
			}
			got := s.packed.Decode(s.buf[:want])
			if got == 0 {
				return n
			}
			for i := 0; i < got; i++ {
				if s.sel.SelectsAddr(s.buf[i].Addr) {
					dst[n] = s.emit(s.buf[i])
					n++
				} else {
					s.drop(s.buf[i])
				}
			}
		}
	default:
		for n < len(dst) {
			a, ok := s.src.Next()
			if !ok {
				return n
			}
			if s.sel.SelectsAddr(a.Addr) {
				dst[n] = s.emit(a)
				n++
			} else {
				s.drop(a)
			}
		}
	}
	return n
}

// DecodeFrame fills dst with the next selected accesses, precomputed
// under geom, returning how many were produced; fewer than len(dst)
// only at end of trace. It filters exactly as Decode does, so a frame
// replay and a Decode drain keep the same records with the same gaps.
func (s *Source) DecodeFrame(dst []trace.FramePre, geom *trace.FrameGeom) int {
	if len(s.frame) < len(dst) {
		s.frame = make([]trace.Access, len(dst))
	}
	n := s.Decode(s.frame[:len(dst)])
	trace.PrecomputeInto(s.frame[:n], dst, geom)
	return n
}

// Next returns the next selected access.
func (s *Source) Next() (trace.Access, bool) {
	for {
		a, ok := s.src.Next()
		if !ok {
			return trace.Access{}, false
		}
		if s.sel.SelectsAddr(a.Addr) {
			return s.emit(a), true
		}
		s.drop(a)
	}
}
