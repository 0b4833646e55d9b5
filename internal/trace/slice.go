package trace

// SliceCursor is a replay position over an already-materialized record
// slice — the "hot tier" counterpart of Cursor. Where Cursor decodes
// the packed streams record by record, SliceCursor replays records that
// already exist in memory: its DecodeFrame precomputes frames straight
// from the shared records and Batch exposes them as zero-copy
// sub-slices, so a hot replay pays no decode and no copy at all.
//
// The underlying slice is shared and must be treated as immutable; any
// number of SliceCursors may replay it concurrently.
type SliceCursor struct {
	recs []Access
	i    int
}

// NewSliceCursor returns a cursor positioned at the first record.
func NewSliceCursor(recs []Access) SliceCursor { return SliceCursor{recs: recs} }

// Batch returns up to max records as a sub-slice of the underlying
// trace, advancing the cursor past them; nil at end of trace. Callers
// must not modify the returned records.
func (c *SliceCursor) Batch(max int) []Access {
	n := len(c.recs) - c.i
	if n <= 0 || max <= 0 {
		return nil
	}
	if n > max {
		n = max
	}
	b := c.recs[c.i : c.i+n : c.i+n]
	c.i += n
	return b
}

// DecodeFrame fills dst with up to len(dst) precomputed frame records
// read in place from the shared slice, advancing the cursor, and
// reports how many it wrote (0 at end of trace). It implements
// FrameSource and performs no allocation.
func (c *SliceCursor) DecodeFrame(dst []FramePre, geom *FrameGeom) int {
	b := c.Batch(len(dst))
	PrecomputeInto(b, dst, geom)
	return len(b)
}

// Next returns the next record, implementing Source.
func (c *SliceCursor) Next() (Access, bool) {
	if c.i >= len(c.recs) {
		return Access{}, false
	}
	a := c.recs[c.i]
	c.i++
	return a, true
}
