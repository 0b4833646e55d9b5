// Package cpu is the trace-driven in-order timing model. It replays an
// access trace against a memory hierarchy, charging one base cycle per
// instruction plus the stall cycles the hierarchy reports for each
// memory access, and reports IPC — the metric behind the paper's
// "performance loss" comparisons.
package cpu

import (
	"context"
	"fmt"
	"time"

	"mobilecache/internal/mem"
	"mobilecache/internal/trace"
)

// Config parameterizes the core.
type Config struct {
	// IdleEvery and IdleCycles model the idle stretches of interactive
	// mobile use (waiting for input, screen dimmed): every IdleEvery
	// accesses the core idles for IdleCycles cycles — no instructions
	// retire, but the caches keep leaking (and STT-RAM retention keeps
	// running). Zero IdleEvery disables idling. Idle time is excluded
	// from IPC, which measures active execution only.
	IdleEvery  uint64
	IdleCycles uint64
}

// Result summarizes one run.
type Result struct {
	// Instructions and Cycles are the totals the run covered; Cycles
	// counts active execution only.
	Instructions uint64
	Cycles       uint64
	// Accesses is the number of trace records replayed.
	Accesses uint64
	// StallCycles is the memory-stall portion of Cycles.
	StallCycles uint64
	// IdleCycles is the time spent in modeled idle stretches; it is
	// not part of Cycles (IPC measures active execution) but it does
	// elapse on the hierarchy's leakage clocks.
	IdleCycles uint64
	// CyclesByDomain attributes active cycles to the domain of the
	// instruction that spent them.
	CyclesByDomain [trace.NumDomains]uint64
}

// Add accumulates another result into r — how a RunState folds in each
// RunFrom call's contribution. Every field is a plain sum.
func (r *Result) Add(o Result) {
	r.Instructions += o.Instructions
	r.Cycles += o.Cycles
	r.Accesses += o.Accesses
	r.StallCycles += o.StallCycles
	r.IdleCycles += o.IdleCycles
	for d := range r.CyclesByDomain {
		r.CyclesByDomain[d] += o.CyclesByDomain[d]
	}
}

// IPC is instructions per active cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// WallCycles is the total elapsed time including idle stretches.
func (r Result) WallCycles() uint64 { return r.Cycles + r.IdleCycles }

// StallFraction is the share of cycles spent stalled on memory.
func (r Result) StallFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.StallCycles) / float64(r.Cycles)
}

// stepBatchLen is the frame size: how many records Run stages per
// AccessFrame call. Big enough to amortize frame setup (the kernel
// hoists hierarchy state once per frame), small enough that the frame
// buffer stays L1-resident on the host.
const stepBatchLen = 256

// advanceEvery is how often, in accesses, the hierarchy's leakage
// clocks are synchronized with the CPU clock.
const advanceEvery = 4096

// CPU binds a config to a hierarchy. (RecordFront's CPU has none: it
// drives a front stage alone.)
type CPU struct {
	cfg  Config
	hier *mem.Hierarchy
	now  uint64
	pre  []mem.FramePre
	geom trace.FrameGeom
	next nextFrames
	// ff holds one frame of front-stage output: decoded from a stored
	// output by RunBack, or produced by the front stage in RecordFront.
	ff mem.FrontFrame
}

// New builds a CPU over the hierarchy.
func New(cfg Config, hier *mem.Hierarchy) (*CPU, error) {
	if hier == nil {
		return nil, fmt.Errorf("cpu: nil hierarchy")
	}
	return &CPU{
		cfg: cfg, hier: hier,
		pre:  make([]mem.FramePre, stepBatchLen),
		geom: hier.FrameGeom(),
	}, nil
}

// Now reports the current simulated cycle.
func (c *CPU) Now() uint64 { return c.now }

// RunState is the resumable replay state a sequence of RunFrom calls
// threads: the accumulated result plus the idle/advance countdowns that
// must survive a segment boundary for the serial composition to be
// bit-identical to one uninterrupted Run. Obtain one from NewRunState.
type RunState struct {
	res Result
	st  stepState
}

// Result returns the result accumulated so far.
func (rs *RunState) Result() Result { return rs.res }

// NewRunState starts a fresh replay: zero counters, idle/advance
// countdowns reset from the config — exactly the state Run begins with.
func (c *CPU) NewRunState() *RunState {
	return &RunState{st: stepState{
		// Countdown counters replace per-access modulo checks against
		// IdleEvery/advanceEvery; a zero idleLeft start disables idling
		// (the counter never moves).
		idleLeft: c.cfg.IdleEvery,
		advLeft:  advanceEvery,
	}}
}

// Run replays up to maxAccesses records from src (0 = until the source
// ends) and returns the timing result. Run may be called repeatedly;
// time continues from where the previous call stopped. When ctx ends
// first, Run stops at the next frame boundary and returns ctx's error
// with the result so far; the machine is then mid-replay and its
// counters describe no complete run.
//
// Run is exactly NewRunState + RunFrom + Finish, so a replay split into
// segments — consecutive RunFrom calls on one RunState, one Finish at
// the end — is bit-identical to a single Run by construction (and
// pinned by the sim-level golden equivalence tests).
func (c *CPU) Run(ctx context.Context, src trace.Source, maxAccesses uint64) (Result, error) {
	rs := c.NewRunState()
	if _, err := c.RunFrom(ctx, rs, src, maxAccesses); err != nil {
		return rs.res, err
	}
	c.Finish()
	return rs.res, nil
}

// RunFrom replays up to maxAccesses records from src (0 = until the
// source ends), continuing the replay rs describes, and returns this
// call's contribution (also accumulated into rs). Unlike Run it does
// not synchronize the hierarchy's leakage clocks at the end — call
// Finish after the last segment. maxAccesses bounds this call alone.
// ctx is polled once per frame, never per access: when it ends, or its
// deadline passes, RunFrom returns ctx's error (for a deadline,
// context.DeadlineExceeded) before starting the next frame.
//
// Replay runs in frames: each iteration asks the source for up to one
// frame of precomputed records (stepBatchLen, clipped so no frame spans
// an idle or leakage-sync boundary — see frameCap) and hands it to the
// hierarchy's frame kernel in a single AccessFrame call. Every source
// goes through the same trace.FrameSource contract: packed cursors
// decode straight into the frame with the precompute fused into the
// coded-width decode loop, hot-tier slice cursors precompute in place
// from their shared records, the set-sampling filter precomputes what
// it keeps, and a plain Source is staged through the CPU's own
// adapter. There is one loop, so results never depend on the source's
// type — and RunBack and RecordFront run the same loop over a stored
// front output and into one.
func (c *CPU) RunFrom(ctx context.Context, rs *RunState, src trace.Source, maxAccesses uint64) (Result, error) {
	res, err := c.run(ctx, rs, pipelined{c.frameSource(src)}, maxAccesses)
	c.next.src = nil
	return res, err
}

// frameSource returns src as a FrameSource, staging a plain Source
// through the CPU's adapter.
func (c *CPU) frameSource(src trace.Source) trace.FrameSource {
	if fsrc, ok := src.(trace.FrameSource); ok {
		return fsrc
	}
	c.next.src = src
	return &c.next
}

// RunBack is Run over a front stage's stored output instead of a
// trace: only the hierarchy's back stage runs, fed the L2-bound events,
// busy cycles and L1 meter counts the front recorded. The output must
// have been recorded (RecordFront) under the same IdleEvery and the
// same maxAccesses cuts as this replay, so its frames are the ones
// this replay's loop asks for; the replay is then identical to a Run
// over the trace on a hierarchy with the front's L1 geometry and
// prefetcher, except that the hierarchy's own L1s stay cold.
func (c *CPU) RunBack(ctx context.Context, r *mem.FrontReader, maxAccesses uint64) (Result, error) {
	rs := c.NewRunState()
	if _, err := c.run(ctx, rs, stored{r}, maxAccesses); err != nil {
		return rs.res, err
	}
	c.Finish()
	return rs.res, nil
}

// RecordFront runs up to maxAccesses records of src (0 = until the
// source ends) through the front stage f alone, in the frames a Run of
// the same bound under cfg would cut, and appends each frame's output
// to out. Like Run it starts fresh idle and leakage-sync countdowns,
// so a replay split into Run calls is recorded by the same split into
// RecordFront calls. There is no back stage, so no clock: a recording
// runs to completion.
func RecordFront(cfg Config, f *mem.Front, src trace.Source, maxAccesses uint64, out *mem.FrontOutput) {
	c := &CPU{cfg: cfg, pre: make([]mem.FramePre, stepBatchLen), geom: f.FrameGeom()}
	c.run(context.Background(), c.NewRunState(), &recording{c.frameSource(src), f, out}, maxAccesses)
}

// frames is what the replay loop reads: a source of frames, each run
// through some stage of the hierarchy.
type frames interface {
	// frame runs up to want records at the CPU's cycle and reports how
	// many it ran (0 once the input is exhausted) and their clock
	// totals.
	frame(c *CPU, want int) (int, mem.FrameStats)
	// advance synchronizes the leakage clocks with the CPU's.
	advance(c *CPU)
}

// pipelined runs a trace through both stages, frame by frame.
type pipelined struct{ src trace.FrameSource }

func (p pipelined) frame(c *CPU, want int) (int, mem.FrameStats) {
	n := p.src.DecodeFrame(c.pre[:want], &c.geom)
	if n == 0 {
		return 0, mem.FrameStats{}
	}
	return n, c.hier.AccessFrame(c.pre[:n], c.now)
}

func (pipelined) advance(c *CPU) { c.hier.Advance(c.now) }

// stored runs a stored front output through the back stage.
type stored struct{ r *mem.FrontReader }

func (s stored) frame(c *CPU, want int) (int, mem.FrameStats) {
	if want == 0 || !s.r.Next(&c.ff) {
		return 0, mem.FrameStats{}
	}
	if c.ff.Records > want {
		panic(fmt.Sprintf("cpu: stored front frame of %d records where the replay cuts %d: it was recorded under other cuts", c.ff.Records, want))
	}
	return c.ff.Records, c.hier.Back(&c.ff, c.now)
}

func (stored) advance(c *CPU) { c.hier.Advance(c.now) }

// recording runs a trace through the front stage alone and appends its
// output; the CPU's clock counts busy cycles only.
type recording struct {
	src trace.FrameSource
	f   *mem.Front
	out *mem.FrontOutput
}

func (r *recording) frame(c *CPU, want int) (int, mem.FrameStats) {
	n := r.src.DecodeFrame(c.pre[:want], &c.geom)
	if n == 0 {
		return 0, mem.FrameStats{}
	}
	r.f.Frame(c.pre[:n], &c.ff)
	r.out.Append(&c.ff)
	return n, mem.FrameStats{Busy: c.ff.Busy, ByDomain: c.ff.BusyByDomain}
}

func (*recording) advance(*CPU) {}

// run is the replay loop every entry point shares: frames cut by
// frameCap, each run by in, retired against the countdowns by
// frameEnd.
func (c *CPU) run(ctx context.Context, rs *RunState, in frames, maxAccesses uint64) (Result, error) {
	var res Result
	st := &rs.st
	var err error
	// A context's deadline reaches Err only once its timer fires, and
	// the runtime runs timers when a processor schedules: with every
	// processor busy replaying, a replay that never yields could run far
	// past its deadline. So the loop reads the clock against it itself.
	deadline, hasDeadline := ctx.Deadline()
	for {
		if err = ctx.Err(); err != nil {
			break
		}
		if hasDeadline && !time.Now().Before(deadline) {
			err = context.DeadlineExceeded
			break
		}
		want := c.frameCap(st, &res, maxAccesses)
		n, fs := in.frame(c, want)
		if n == 0 {
			break
		}
		c.stepFrame(n, fs, &res)
		c.frameEnd(n, &res, st, in)
	}
	rs.res.Add(res)
	return res, err
}

// Finish synchronizes the hierarchy's leakage clocks with the CPU
// clock — the step Run performs after its replay loop. Call it once
// after the last RunFrom of a composed replay; calling it between
// segments would change how the leakage integral associates (floats)
// even though every integer counter would be identical.
func (c *CPU) Finish() {
	c.hier.Advance(c.now)
}

// nextFrames adapts a plain Source — one without its own DecodeFrame —
// to trace.FrameSource by precomputing its records one Next at a time.
// The CPU owns one, so wrapping a source allocates nothing.
type nextFrames struct {
	src trace.Source
}

func (a *nextFrames) Next() (trace.Access, bool) { return a.src.Next() }

func (a *nextFrames) DecodeFrame(dst []trace.FramePre, geom *trace.FrameGeom) int {
	for n := range dst {
		rec, ok := a.src.Next()
		if !ok {
			return n
		}
		dst[n] = trace.Precompute(&rec, geom)
	}
	return len(dst)
}

// stepState is the per-Run hot-loop state.
type stepState struct {
	idleLeft, advLeft uint64
}

// frameCap sizes the next frame: at most stepBatchLen records, never
// crossing the idle or leakage-sync countdown (so those events fire
// exactly at frame boundaries, at the same access positions the
// per-record loop fired them), and never past this call's maxAccesses
// budget. Countdowns are always positive here — frameEnd resets them
// the moment they reach zero.
func (c *CPU) frameCap(st *stepState, res *Result, maxAccesses uint64) int {
	want := stepBatchLen
	if st.advLeft < uint64(want) {
		want = int(st.advLeft)
	}
	if st.idleLeft > 0 && st.idleLeft < uint64(want) {
		want = int(st.idleLeft)
	}
	if maxAccesses != 0 {
		if left := maxAccesses - res.Accesses; left < uint64(want) {
			want = int(left)
		}
	}
	return want
}

// stepFrame charges one frame of n records: one base cycle per
// instruction (DecodeFrame fills each record's Busy with its
// instruction count) and the stalls the hierarchy reported; everything
// folds into res in one pass.
func (c *CPU) stepFrame(n int, fs mem.FrameStats, res *Result) {
	c.now += fs.Busy + fs.Stall
	res.Accesses += uint64(n)
	res.Instructions += fs.Busy
	res.Cycles += fs.Busy + fs.Stall
	res.StallCycles += fs.Stall
	for d, v := range fs.ByDomain {
		res.CyclesByDomain[d] += v
	}
}

// frameEnd retires a frame of n accesses against the idle and
// leakage-sync countdowns. frameCap guarantees n never overshoots
// either countdown, so each fires exactly at its per-access position;
// when both fire at the same access, idle runs first and the leakage
// sync observes the post-idle clock — the per-record loop's order.
func (c *CPU) frameEnd(n int, res *Result, st *stepState, in frames) {
	st.advLeft -= uint64(n)
	if st.idleLeft > 0 {
		st.idleLeft -= uint64(n)
		if st.idleLeft == 0 {
			st.idleLeft = c.cfg.IdleEvery
			c.now += c.cfg.IdleCycles
			res.IdleCycles += c.cfg.IdleCycles
			// Let retention controllers and leakage meters observe the
			// idle stretch immediately.
			in.advance(c)
		}
	}
	if st.advLeft == 0 {
		st.advLeft = advanceEvery
		in.advance(c)
	}
}
