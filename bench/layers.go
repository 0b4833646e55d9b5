package main

import (
	"context"
	"math"
	"path/filepath"
	"time"

	"mobilecache/internal/checkpoint"
	"mobilecache/internal/engine"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// frameLen is the replay frame the CPU stages per AccessFrame call
// (cpu's stepBatchLen); the probes cut frames the same way.
const frameLen = 256

// probeOut is what the probe passes measure besides their spans.
type probeOut struct {
	packedBytes, packedRecords int64
	// seen and kept are the sample filter's record counts.
	seen, kept uint64
}

// probe runs the layer probe passes over the plan's traces, one call
// at a time, recording one span per timed call:
//
//   - probe.gen and probe.pack: generate each trace and pack it, as
//     the arena does on a miss;
//   - probe.filter (sampled plans): the sample filter over the base
//     trace, as the arena's derived-trace build does;
//   - per cell, on a fresh machine: probe.decode (packed frames into
//     FramePre records), probe.precompute (the same frames from hot
//     records), probe.frame (Hierarchy.AccessFrame alone over the
//     pre-decoded frames, advancing the clock by Busy+Stall), and
//     probe.replay over each tier;
//   - probe.memo_hit: a cell served from a warm engine's memo.
func probe(ctx context.Context, t *tracer, plan engine.Plan, cfg engine.Config) (probeOut, error) {
	var out probeOut
	first, err := sim.BuildSampled(plan.Cells[0].Config, plan.Sample)
	if err != nil {
		return out, err
	}
	type traceKey struct {
		app  string
		seed uint64
	}
	inputs := map[traceKey]tracestore.Trace{}
	for _, c := range plan.Cells {
		k := traceKey{c.App, c.Seed}
		if _, ok := inputs[k]; !ok {
			if inputs[k], err = probeTrace(t, c, plan.Accesses, first, &out); err != nil {
				return out, err
			}
		}
	}
	for _, c := range plan.Cells {
		if err := probeCell(t, c, plan.Sample, inputs[traceKey{c.App, c.Seed}]); err != nil {
			return out, err
		}
	}

	eng := engine.New(cfg)
	c := plan.Cells[0]
	for k := 0; k < 101; k++ {
		start := time.Now()
		if _, err := eng.RunOneSampled(ctx, c, plan.Accesses, 0, plan.Sample); err != nil {
			return out, err
		}
		if k > 0 { // the first call fills the memo
			t.probe("probe.memo_hit", c.Machine, c.App, "", 0, start)
		}
	}
	return out, nil
}

// probeTrace generates and packs cell c's trace and, when m samples,
// derives the filtered trace its machines replay. Both forms of the
// result are resident, as in the arena's hot tier.
func probeTrace(t *tracer, c engine.Cell, accesses int, m *sim.Machine, out *probeOut) (tracestore.Trace, error) {
	start := time.Now()
	recs, err := generate(c.Profile, c.Seed, accesses)
	if err != nil {
		return tracestore.Trace{}, err
	}
	start = t.probe("probe.gen", "", c.App, "", len(recs), start)
	tr := tracestore.Trace{Packed: trace.PackSlice(recs), Records: recs}
	start = t.probe("probe.pack", "", c.App, "", len(recs), start)
	out.packedBytes += tr.Packed.SizeBytes()
	out.packedRecords += int64(tr.Packed.Len())
	if m.Sample == nil {
		return tr, nil
	}
	cur := trace.NewSliceCursor(recs)
	kept, st := filterTrace(m.Sample, &cur, accesses)
	t.probe("probe.filter", "", c.App, "", len(recs), start)
	for op := range st.Seen {
		out.seen += st.Seen[op]
		out.kept += st.Kept[op]
	}
	return tracestore.Trace{Packed: trace.PackSlice(kept), Records: kept}, nil
}

// probeCell times the replay layers of cell c over its trace.
func probeCell(t *tracer, c engine.Cell, spec sample.Spec, tr tracestore.Trace) error {
	m, err := sim.BuildSampled(c.Config, spec)
	if err != nil {
		return err
	}
	geom := m.Hier.FrameGeom()
	n := len(tr.Records)

	// Decode and precompute fill one reused frame, as the CPU does.
	frame := make([]trace.FramePre, frameLen)
	start := time.Now()
	cur := tr.Packed.Cursor()
	for cur.DecodeFrame(frame, &geom) > 0 {
	}
	start = t.probe("probe.decode", c.Machine, c.App, "", n, start)
	for off := 0; off < n; off += frameLen {
		trace.PrecomputeInto(tr.Records[off:min(off+frameLen, n)], frame, &geom)
	}
	t.probe("probe.precompute", c.Machine, c.App, "", n, start)

	// The frame loop replays frames decoded ahead, untimed.
	pre := make([]trace.FramePre, n)
	cur = tr.Packed.Cursor()
	for off := 0; off < n; off += frameLen {
		cur.DecodeFrame(pre[off:min(off+frameLen, n)], &geom)
	}
	start = time.Now()
	var now uint64
	for off := 0; off < n; off += frameLen {
		fs := m.Hier.AccessFrame(pre[off:min(off+frameLen, n)], now)
		now += fs.Busy + fs.Stall
	}
	t.probe("probe.frame", c.Machine, c.App, "", n, start)

	for _, tier := range []string{"hot", "packed"} {
		m, err := sim.BuildSampled(c.Config, spec)
		if err != nil {
			return err
		}
		src := tr
		if tier == "packed" {
			src.Records = nil
		}
		start := time.Now()
		sim.RunTrace(m, c.Profile.Name, src.Cursor(), 0)
		t.probe("probe.replay", c.Machine, c.App, tier, n, start)
	}
	return nil
}

// generate materializes a trace the way the arena does on a miss.
func generate(prof workload.Profile, seed uint64, accesses int) ([]trace.Access, error) {
	gen, err := workload.NewGenerator(prof, seed, workload.PhaseLen(prof, accesses))
	if err != nil {
		return nil, err
	}
	recs := make([]trace.Access, 0, accesses)
	for len(recs) < accesses {
		a, ok := gen.Next()
		if !ok {
			break
		}
		recs = append(recs, a)
	}
	return recs, nil
}

// probe keeps a probe span from start to now and returns now, the
// next probe's start.
func (t *tracer) probe(name, machine, app, note string, n int, start time.Time) time.Time {
	end := time.Now()
	s := t.begin(0, "probe", name)
	s.Start, s.Machine, s.App, s.Note, s.N = t.at(start), machine, app, note, int64(n)
	t.keep(s, end)
	return end
}

// probeJournal times the checkpoint journal the daemon writes per
// cell: appends (fsynced only every DefaultSyncEvery appends, which
// the median skips) and explicit fsyncs.
func probeJournal(t *tracer, dir string, rep sim.RunReport) error {
	key, err := checkpoint.KeyOf("probe")
	if err != nil {
		return err
	}
	j, err := checkpoint.Create(filepath.Join(dir, "probe.journal"), 0)
	if err != nil {
		return err
	}
	for k := 0; k < 64 && err == nil; k++ {
		start := time.Now()
		err = j.AppendJSON(key, rep)
		t.probe("probe.append", "", "", "", 0, start)
	}
	for k := 0; k < 16 && err == nil; k++ {
		if err = j.AppendJSON(key, rep); err != nil {
			break
		}
		start := time.Now()
		err = j.Sync()
		t.probe("probe.sync", "", "", "", 0, start)
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerInputs is everything the per-layer metrics derive from.
type layerInputs struct {
	spans []span
	// cells are the last traced round's outputs (the daemon's cell
	// pass), for the exact simulated counts.
	cells []cellOut
	probe probeOut
	// store and memo are one untraced round's arena and memo counters
	// (for the daemon, the manager's over its timed phases).
	store tracestore.Stats
	memo  engine.MemoStats
	// busyWall is the summed wall time of the traced rounds.
	busyWall float64
	// overhead is traced ÷ untraced wall − 1.
	overhead float64
}

// layerMetrics computes every per-layer metric; a layer the workload
// does not exercise reads 0.
func layerMetrics(in layerInputs) map[string]float64 {
	g := groupSpans(in.spans)
	nsPer := func(name, note string) float64 {
		d, n := g.total(name, note)
		return ratio(float64(d), float64(n))
	}
	ms, us := float64(time.Millisecond), float64(time.Microsecond)

	replay := nsPer("sim.replay", "")
	hot := float64(len(g.matching("sim.replay", "hot")))
	hotFrac := ratio(hot, float64(len(g["sim.replay"])))
	decode, precompute, frame := nsPer("probe.decode", ""), nsPer("probe.precompute", ""), nsPer("probe.frame", "")
	// Replay of a hot trace precomputes its frames; a packed one
	// decodes them. What the two probes leave unexplained is the CPU
	// loop's own work (frame sizing, leakage sync, result folding).
	prep := hotFrac*precompute + (1-hotFrac)*decode

	var epochs, flushes, l2Acc, l2Miss, l1Acc, l1Hit, dram, accesses float64
	for _, c := range in.cells {
		if h := len(c.rep.History); h > 0 {
			epochs += float64(h - 1)
		}
		flushes += float64(c.rep.FlushWritebacks)
		l2Acc += float64(c.rep.L2.TotalAccesses())
		l2Miss += float64(c.rep.L2.TotalMisses())
		l1Acc += float64(c.l1Accesses)
		l1Hit += float64(c.l1Hits)
		dram += float64(c.rep.DRAMReads + c.rep.DRAMWrites)
		accesses += float64(c.rep.CPU.Accesses)
	}
	keptFrac := 1.0
	if in.probe.seen > 0 {
		keptFrac = float64(in.probe.kept) / float64(in.probe.seen)
	}
	cellTime, _ := g.total("cell", "")

	return map[string]float64{
		"sim.replay_ns_per_access":        replay,
		"sim.replay_hot_ns_per_access":    nsPer("probe.replay", "hot"),
		"sim.replay_packed_ns_per_access": nsPer("probe.replay", "packed"),
		"trace.decode_ns_per_access":      decode,
		"trace.precompute_ns_per_access":  precompute,
		"mem.frame_ns_per_access":         frame,
		"cpu.self_ns_per_access":          replay - prep - frame,

		"tracestore.hot_replay_frac":    hotFrac,
		"tracestore.resident_mb":        float64(in.store.BytesInUse) / (1 << 20),
		"tracestore.demotions":          float64(in.store.Demotions),
		"trace.packed_bytes_per_access": ratio(float64(in.probe.packedBytes), float64(in.probe.packedRecords)),

		"workload.gen_ns_per_access": nsPer("probe.gen", ""),
		"trace.pack_ns_per_access":   nsPer("probe.pack", ""),
		"tracestore.miss_ms":         g.medianOf("tracestore.get", "miss", ms),
		"tracestore.hit_us":          g.medianOf("tracestore.get", "hit", us),
		"tracestore.hit_ratio":       ratio(float64(in.store.Hits), float64(in.store.Hits+in.store.Misses)),

		"sample.filter_ns_per_access": nsPer("probe.filter", ""),
		"sample.kept_frac":            keptFrac,
		"tracestore.derive_ms":        g.medianOf("tracestore.derive", "miss", ms),

		"core.dp_epochs":        epochs,
		"core.flush_writebacks": flushes,
		"core.l2_miss_frac":     ratio(l2Miss, l2Acc),
		"mem.l1_hit_frac":       ratio(l1Hit, l1Acc),
		"mem.dram_per_kaccess":  ratio(dram, accesses) * 1000,

		"sim.build_us":       g.medianOf("sim.build", "", us),
		"sim.audit_us":       g.medianOf("sim.audit", "", us),
		"engine.key_us":      g.medianOf("engine.key", "", us),
		"engine.sink_us":     g.medianOf("engine.sink", "", us),
		"engine.cell_ms_p50": g.quantileOf("cell", 0.5, ms),
		"engine.cell_ms_p90": g.quantileOf("cell", 0.9, ms),
		"runner.busy_frac":   ratio(cellTime.Seconds(), workers*in.busyWall),

		"checkpoint.append_us": g.medianOf("probe.append", "", us),
		"checkpoint.sync_ms":   g.medianOf("probe.sync", "", ms),
		"jobs.submit_ms":       g.medianOf("jobs.submit", "", ms),
		"jobs.first_cell_ms":   g.medianOf("jobs.first_cell", "", ms),
		"jobs.run_ms":          g.medianOf("jobs.run", "", ms),
		"jobs.csv_ms":          g.medianOf("jobs.csv", "", ms),
		"engine.memo_hit_ratio": ratio(float64(in.memo.Hits),
			float64(in.memo.Hits+in.memo.Misses)),
		"engine.memo_hit_us": g.medianOf("probe.memo_hit", "", us),

		"bench.trace_overhead_frac": in.overhead,
		"bench.span_coverage":       coverage(in.spans, "cell", "job"),
		"bench.reconcile_err":       ratio(math.Abs(prep+frame-replay), replay),
	}
}
