package trace

import "encoding/binary"

// This file defines the frame record of the batched replay kernel and
// FrameSource, the one contract the replay loop consumes. The replay
// hot path (cpu.Run -> mem.AccessFrame) takes traces in fixed-size
// frames of FramePre records: the decoded access plus everything the
// L1 lookup needs precomputed — the target cache's (set, tag)
// decomposition, the op classification and the instruction count. For
// packed traces the precompute folds into the coded-width decode loop
// itself (Cursor.DecodeFrame): the set/tag arithmetic is independent
// of the stream loads, so it fills pipeline slots the decode leaves
// idle, and the intermediate Access staging pass disappears. Sources
// whose records already exist in memory (SliceCursor) run
// PrecomputeInto straight over them.
//
// The decomposition parameters arrive as plain shift/mask arithmetic
// (SetTagGeom) rather than a cache dependency: trace stays the bottom
// of the package graph.

// SetTagGeom is one cache's address decomposition: set index and tag
// are extracted from the block number (addr >> BlockShift).
type SetTagGeom struct {
	// BlockShift is log2 of the block size.
	BlockShift uint
	// IndexMask selects the set index bits of the block number.
	IndexMask uint64
	// TagShift drops the set index bits, leaving the tag.
	TagShift uint
}

// FrameGeom is the two-cache routing table of the frame precompute,
// indexed by FramePre.Kind: [KindData] describes the data L1 and
// [KindIfetch] the instruction L1.
type FrameGeom [2]SetTagGeom

// FramePre.Kind values: index into FrameGeom and the kernel's per-L1
// state.
const (
	KindData   = 0
	KindIfetch = 1
)

// FramePre is one frame record: the decoded access with its L1 lookup
// context precomputed. The struct packs to 40 bytes so a 256-record
// frame stays L1-resident on the host.
type FramePre struct {
	// Addr and PC are the record's raw fields (the miss path needs
	// them for block math and trace taps).
	Addr uint64
	PC   uint64
	// Tag is the address tag under the target L1's geometry.
	Tag uint64
	// Busy is filled as the record's instruction count (Gap+1); the
	// CPU rescales it in place to base cycles when the configured CPI
	// is not 1.
	Busy uint64
	// Set is the set index under the target L1's geometry.
	Set int32
	// Dom is the record's privilege domain.
	Dom Domain
	// Kind routes the record: KindData or KindIfetch.
	Kind uint8
	// Write marks stores.
	Write bool
}

// Op reconstructs the record's operation kind.
func (p *FramePre) Op() Op {
	if p.Kind == KindIfetch {
		return Ifetch
	}
	if p.Write {
		return Store
	}
	return Load
}

// FrameSource is a Source that can fill a replay frame directly: up to
// len(dst) records, precomputed under geom, reporting how many it wrote
// (0 at end of trace; fewer than len(dst) only there). DecodeFrame must
// not consume records past the last one it reports, so a replay can
// take frames of any size and stop between any two records.
type FrameSource interface {
	Source
	DecodeFrame(dst []FramePre, geom *FrameGeom) int
}

// PrecomputeInto fills pre[i] for each record of batch under geom. pre
// must be at least len(batch) long. This is the in-memory twin of
// Cursor.DecodeFrame for records that already exist as Accesses.
func PrecomputeInto(batch []Access, pre []FramePre, geom *FrameGeom) {
	if len(batch) == 0 {
		return
	}
	_ = pre[len(batch)-1]
	for i := range batch {
		pre[i] = Precompute(&batch[i], geom)
	}
}

// Precompute returns a's frame record under geom.
func Precompute(a *Access, geom *FrameGeom) FramePre {
	kind := uint8(KindData)
	if a.Op == Ifetch {
		kind = KindIfetch
	}
	g := &geom[kind]
	b := a.Addr >> g.BlockShift
	return FramePre{
		Addr:  a.Addr,
		PC:    a.PC,
		Tag:   b >> g.TagShift,
		Busy:  uint64(a.Gap) + 1,
		Set:   int32(b & g.IndexMask),
		Dom:   a.Domain,
		Kind:  kind,
		Write: a.Op == Store,
	}
}

// DecodeFrame fills dst with up to len(dst) precomputed frame records,
// advancing the cursor, and reports how many it wrote (0 at end of
// trace). It is Decode with the frame precompute fused into the same
// pass: each record's set/tag decomposition and op classification are
// computed alongside the next record's stream loads, and no
// intermediate Access staging is written. DecodeFrame performs no
// allocation.
func (c *Cursor) DecodeFrame(dst []FramePre, geom *FrameGeom) int {
	p := c.p
	if p == nil {
		return 0
	}
	n := p.n - c.i
	if n <= 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	out := dst[:n]
	addrS, pcS, gapS := p.addr, p.pc, p.gap
	ctrlS := p.ctrl[c.i : c.i+n]
	odS := p.opdom[c.i : c.i+n]
	addrPos, pcPos, gapPos := c.addrPos, c.pcPos, c.gapPos
	prevAddr, prevPC := c.prevAddr, c.prevPC
	for k := range out {
		// Branch-free coded-width decode, exactly as in Decode (see the
		// comment there).
		ct := ctrlS[k]
		da := binary.LittleEndian.Uint64(addrS[addrPos:]) & widthMask[ct&3]
		addrPos += 1 << (ct & 3)
		dp := binary.LittleEndian.Uint64(pcS[pcPos:]) & widthMask[ct>>2&3]
		pcPos += 1 << (ct >> 2 & 3)
		gap := binary.LittleEndian.Uint64(gapS[gapPos:]) & widthMask[ct>>4&3]
		gapPos += 1 << (ct >> 4 & 3)
		od := odS[k]
		prevAddr += uint64(unzigzag(da))
		prevPC += uint64(unzigzag(dp))
		op := Op(od & (1<<domShift - 1))
		kind := uint8(KindData)
		if op == Ifetch {
			kind = KindIfetch
		}
		g := &geom[kind]
		b := prevAddr >> g.BlockShift
		out[k] = FramePre{
			Addr:  prevAddr,
			PC:    prevPC,
			Tag:   b >> g.TagShift,
			Busy:  gap + 1,
			Set:   int32(b & g.IndexMask),
			Dom:   Domain(od >> domShift),
			Kind:  kind,
			Write: op == Store,
		}
	}
	c.addrPos, c.pcPos, c.gapPos = addrPos, pcPos, gapPos
	c.prevAddr, c.prevPC = prevAddr, prevPC
	c.i += n
	return n
}
