package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"mobilecache/internal/cache"
	"mobilecache/internal/checkpoint"
	"mobilecache/internal/engine"
	"mobilecache/internal/runner"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
)

// round is one untraced sweep round: the plan executed on a fresh
// engine, so it starts with a cold arena and a cold memo, as one
// mcsweep invocation does.
type round struct {
	wall time.Duration
	// cells holds each cell's latency, dispatch to result. With one
	// worker the cells run back to back, so a cell's latency is the
	// time since the previous result.
	cells   []time.Duration
	csv     []byte
	reports []sim.RunReport // plan order; zero where ok is false
	ok      []bool
	sum     engine.Summary
}

func runRound(ctx context.Context, plan engine.Plan, cfg engine.Config) (round, error) {
	eng := engine.New(cfg)
	var buf bytes.Buffer
	col := engine.NewCollector()
	done := make([]time.Time, len(plan.Cells))
	start := time.Now()
	sum, err := eng.Execute(ctx, plan, engine.ExecOptions{
		OnResult: func(r engine.Result) { done[r.Index] = time.Now() },
	}, engine.NewCSV(&buf), col)
	r := round{
		wall: time.Since(start), csv: buf.Bytes(), sum: sum,
		reports: make([]sim.RunReport, len(plan.Cells)), ok: make([]bool, len(plan.Cells)),
	}
	if err != nil {
		return r, fmt.Errorf("executing the plan: %w", err)
	}
	for _, res := range col.Results {
		r.reports[res.Index], r.ok[res.Index] = res.Report, true
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	prev := start
	for _, t := range done {
		if !t.IsZero() {
			r.cells = append(r.cells, t.Sub(prev))
			prev = t
		}
	}
	return r, nil
}

// runSweep runs one of the three sweep workloads.
func runSweep(ctx context.Context, w workloadDef, o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	cfg := w.engineConfig()

	// Set-up: resolve the grid and run one warm-up round.
	var plan engine.Plan
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		freshHeap()
		start := time.Now()
		p, err := w.sweepPlan(o.seed)
		if err != nil {
			return nil, err
		}
		if _, err := runRound(ctx, p, cfg); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		plan = p
	}

	window := o.window()
	var walls, rss []float64
	var ops [][]float64 // cell latencies per round
	var first, last round
	err := measure(window, func(n int) error {
		freshHeap()
		r, err := runRound(ctx, plan, cfg)
		if err != nil {
			return err
		}
		rss = append(rss, peakRSSMB())
		walls = append(walls, r.wall.Seconds())
		cells := make([]float64, len(r.cells))
		for i, d := range r.cells {
			cells[i] = d.Seconds() * 1000
		}
		ops = append(ops, cells)
		out.attempted += len(plan.Cells)
		for _, ok := range r.ok {
			if !ok {
				out.failed++
			}
		}
		if n == 0 {
			first = r
		} else {
			// Every round runs the same cells, so its output must match
			// the first round's byte for byte.
			out.failed += diffLines(first.csv, r.csv)
		}
		last = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.rounds = len(walls)

	// Output check: seed-chosen cells against references that use
	// neither the arena nor the memo.
	for _, i := range pick(o.seed, len(plan.Cells), checkCells) {
		out.checked++
		if !last.ok[i] || !checkReport(plan, i, last.reports[i]) {
			out.failed++
		}
	}

	if !o.trace {
		requested := float64(len(plan.Cells) * plan.Accesses)
		rates := make([]float64, len(walls))
		for i, s := range walls {
			rates[i] = requested / s / 1e6
		}
		out.metrics["setup_s"] = median(setupTimes)
		out.metrics["maccess_per_s"] = median(rates)
		out.metrics["peak_rss_mb"] = median(rss)
		out.metrics["op_ms_p50"] = roundQuantile(ops, 0.5)
		out.metrics["op_ms_p90"] = roundQuantile(ops, 0.9)
		return out, nil
	}

	// Traced run: the same rounds through the benchmark's own cell
	// function, one span per layer call, then the probe passes.
	t := newTracer()
	var twalls []float64
	var cells []cellOut
	err = measure(window, func(n int) error {
		freshHeap()
		outs, wall, failed, err := tracedRound(ctx, t, plan, cfg, fmt.Sprintf("round-%d", n))
		if err != nil {
			return err
		}
		twalls = append(twalls, wall.Seconds())
		out.attempted += len(plan.Cells)
		out.failed += failed + diffTraced(plan, last, outs)
		cells = outs
		return nil
	})
	if err != nil {
		return nil, err
	}
	if plan.Sample.Enabled() {
		for _, i := range pick(o.seed, len(plan.Cells), checkCells) {
			out.checked++
			if !checkSampledRaw(plan, i, cells[i].rep) {
				out.failed++
			}
		}
	}
	pr, err := probe(ctx, t, plan, cfg)
	if err != nil {
		return nil, err
	}
	out.spans = t.all()
	out.metrics = layerMetrics(layerInputs{
		spans:    out.spans,
		cells:    cells,
		probe:    pr,
		store:    last.sum.Store,
		memo:     last.sum.Memo,
		busyWall: sumOf(twalls),
		overhead: ratio(median(twalls), median(walls)) - 1,
	})
	return out, nil
}

// measure calls fn(0), fn(1), ... until window has elapsed; it always
// makes at least one call.
func measure(window time.Duration, fn func(n int) error) error {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < window; n++ {
		if err := fn(n); err != nil {
			return err
		}
	}
	return nil
}

// cellOut is what the traced cell function leaves behind.
type cellOut struct {
	rep sim.RunReport
	// row is the CSV sink's record for this cell alone.
	row []byte
	// l1Accesses and l1Hits sum both L1s after the replay.
	l1Accesses, l1Hits uint64
}

// tracedRound runs the plan's cells through tracedCell under the same
// worker pool the engine uses, on a fresh arena, and returns the cell
// outputs in plan order with the round's wall time and failure count.
func tracedRound(ctx context.Context, t *tracer, plan engine.Plan, cfg engine.Config, traceID string) ([]cellOut, time.Duration, int, error) {
	store := engine.New(cfg).Store()
	rcells := make([]runner.Cell, len(plan.Cells))
	index := make(map[runner.Cell]int, len(plan.Cells))
	for i, c := range plan.Cells {
		rcells[i] = runner.Cell{Machine: c.Machine, App: c.App, Seed: c.Seed}
		index[rcells[i]] = i
	}
	var seen sync.Map
	start := time.Now()
	outcomes, err := runner.Run(ctx, runner.Config{Workers: workers, KeepGoing: true}, rcells,
		func(_ context.Context, rc runner.Cell) (cellOut, error) {
			return tracedCell(t, store, plan, index[rc], traceID, &seen)
		})
	wall := time.Since(start)
	if err != nil {
		return nil, wall, 0, err
	}
	outs := make([]cellOut, len(outcomes))
	failed := 0
	for i, o := range outcomes {
		if o.Err != nil {
			failed++
			continue
		}
		outs[i] = o.Value
	}
	return outs, wall, failed, nil
}

// tracedCell runs plan cell i layer by layer, in the order the engine
// calls them, with a span around each call: the content key, the
// machine build, the arena lookup (and, sampled, the derived trace),
// the replay, the audit and the CSV sink. A sampled cell stops at the
// raw report: the scaling step has no public entry point, and it is
// arithmetic on a finished report.
func tracedCell(t *tracer, store *tracestore.Store, plan engine.Plan, i int, traceID string, seen *sync.Map) (cellOut, error) {
	c := plan.Cells[i]
	cell := t.begin(0, traceID, "cell")
	cell.Machine, cell.App = c.Machine, c.App
	defer t.end(cell)

	sp := t.begin(cell.ID, traceID, "engine.key")
	key, err := cellKey(c, plan)
	t.end(sp)
	if err != nil {
		return cellOut{}, err
	}

	sp = t.begin(cell.ID, traceID, "sim.build")
	m, err := sim.BuildSampled(c.Config, plan.Sample)
	t.end(sp)
	if err != nil {
		return cellOut{}, err
	}

	sp = t.begin(cell.ID, traceID, "tracestore.get")
	sp.Note = firstSeen(seen, "get", c)
	tr, err := store.GetTrace(c.Profile, c.Seed, plan.Accesses)
	t.end(sp)
	if err != nil {
		return cellOut{}, err
	}
	if m.Sample != nil {
		sp = t.begin(cell.ID, traceID, "tracestore.derive")
		sp.Note = firstSeen(seen, "derive", c)
		tr, _, err = store.DeriveTrace(c.Profile, c.Seed, plan.Accesses, derivedVariant(m.Sample),
			func(base tracestore.Trace) (*trace.Packed, []trace.Access, any, error) {
				recs, st := filterTrace(m.Sample, base.Cursor(), plan.Accesses)
				return trace.PackSlice(recs), recs, st, nil
			})
		t.end(sp)
		if err != nil {
			return cellOut{}, err
		}
	}

	sp = t.begin(cell.ID, traceID, "sim.replay")
	sp.Note = "packed"
	if tr.Records != nil {
		sp.Note = "hot"
	}
	rep := sim.RunTrace(m, c.Profile.Name, tr.Cursor(), 0)
	sp.N = int64(rep.CPU.Accesses)
	t.end(sp)

	sp = t.begin(cell.ID, traceID, "sim.audit")
	violations := sim.Audit(rep)
	t.end(sp)
	if len(violations) > 0 {
		return cellOut{}, fmt.Errorf("audit: %v", violations)
	}

	sp = t.begin(cell.ID, traceID, "engine.sink")
	var buf bytes.Buffer
	sink := engine.NewCSV(&buf)
	err = sink.Emit(engine.Result{Index: i, Cell: c, Key: key, Report: rep})
	if err == nil {
		err = sink.Flush()
	}
	t.end(sp)
	if err != nil {
		return cellOut{}, err
	}

	out := cellOut{rep: rep, row: csvLine(buf.Bytes(), 1)}
	for _, s := range []*cache.Stats{m.Hier.L1I.Stats(), m.Hier.L1D.Stats()} {
		out.l1Accesses += s.TotalAccesses()
		out.l1Hits += s.TotalAccesses() - s.TotalMisses()
	}
	return out, nil
}

// cellKey is the content key the engine gives an unsegmented cell
// (the checkpoint journal and memo key).
func cellKey(c engine.Cell, plan engine.Plan) (checkpoint.Key, error) {
	if s := plan.Sample; s.Enabled() {
		return checkpoint.KeyOf(c.Config, c.Profile, c.Seed, plan.Accesses, plan.Warmup, "sample", s.Factor, s.Hash)
	}
	return checkpoint.KeyOf(c.Config, c.Profile, c.Seed, plan.Accesses, plan.Warmup)
}

// firstSeen classifies an arena lookup as the round's first request
// for its trace ("miss": it builds the trace) or a later one ("hit").
func firstSeen(seen *sync.Map, kind string, c engine.Cell) string {
	if _, loaded := seen.LoadOrStore(fmt.Sprintf("%s/%s/%d", kind, c.App, c.Seed), true); loaded {
		return "hit"
	}
	return "miss"
}

// derivedVariant is the arena tag of a set-sampled derived trace: one
// per (spec, block size), shared by every machine of a sweep.
func derivedVariant(sel *sample.Selector) string {
	return fmt.Sprintf("sample:%s:b%d", sel.Spec(), sel.BlockBytes())
}

// filterTrace is the set-sampling transform the engine caches once
// per trace: the selector's sets are kept, with the dropped records'
// instructions redistributed onto the kept ones.
func filterTrace(sel *sample.Selector, src trace.Source, accesses int) ([]trace.Access, sample.Stats) {
	fs := sample.NewSource(sel, src)
	out := make([]trace.Access, 0, accesses/sel.Factor()+16)
	var buf [512]trace.Access
	for {
		n := fs.Decode(buf[:])
		out = append(out, buf[:n]...)
		if n < len(buf) {
			return out, fs.Stats()
		}
	}
}

// diffTraced counts traced cells whose output differs from the same
// cell of the untraced round. Exact cells must match in report and CSV
// record; sampled cells are raw reports, checked separately. Cells
// that failed outright (no CSV record) are already counted.
func diffTraced(plan engine.Plan, untraced round, outs []cellOut) int {
	if plan.Sample.Enabled() {
		return 0
	}
	bad := 0
	for i, o := range outs {
		if o.row == nil {
			continue
		}
		if !untraced.ok[i] || !reflect.DeepEqual(o.rep, untraced.reports[i]) ||
			!bytes.Equal(o.row, csvLine(untraced.csv, i+1)) {
			bad++
		}
	}
	return bad
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
