package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mobilecache/internal/engine"
	"mobilecache/internal/jobs"
	"mobilecache/internal/tracestore"
)

// jobCycle is the period of a daemon client's job mix: its apps rotate
// with period 5 and every fourth job is a repeat, so every 20 jobs hold
// the same mix. Each client runs whole cycles, the latency quantiles
// are taken per cycle, and the output check draws its jobs from the
// first cycle.
const jobCycle = 20

// jobRec is one daemon job as its client saw it.
type jobRec struct {
	client, k int
	spec      jobs.Spec
	csv       []byte
	latency   time.Duration
	ok        bool
}

// runDaemon runs the daemon-jobs workload: an in-process job manager
// on a store under o.out, driven by a closed loop of two clients.
// HTTP handling (cmd/mcserved) is not measured.
func runDaemon(ctx context.Context, w workloadDef, o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	dir, err := os.MkdirTemp(o.out, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: open (and recover) a fresh store, then warm up with two
	// jobs per client whose specs the timed phase never repeats.
	var m *jobs.Manager
	defer func() {
		if m != nil {
			shutdown(m)
		}
	}()
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		mi, err := jobs.New(jobs.Options{Root: filepath.Join(dir, fmt.Sprintf("store-%d", i)), Workers: workers, KeepGoing: true})
		if err != nil {
			return nil, err
		}
		warm, _ := clientLoop(ctx, mi, w, o.seed, clients, make([]int, clients), 0, 2, nil)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if m != nil {
			shutdown(m)
		}
		m = mi
		for _, r := range warm {
			if !r.ok {
				return nil, fmt.Errorf("warm-up job %v failed", r.spec)
			}
		}
	}

	next := make([]int, clients)
	store0, memo0 := m.Engine().Store().Stats(), m.Engine().MemoStats()
	recs, wall := clientLoop(ctx, m, w, o.seed, 0, next, o.window(), jobCycle, nil)
	rss := peakRSSMB()

	// Latencies per cycle of the job mix (the clients' cycles of the
	// same number together), and all latencies pooled.
	var lat [][]float64
	var all []float64
	var requested float64
	for _, r := range recs {
		out.attempted++
		if !r.ok {
			out.failed++
			continue
		}
		c := r.k / jobCycle
		for len(lat) <= c {
			lat = append(lat, nil)
		}
		ms := r.latency.Seconds() * 1000
		lat[c] = append(lat[c], ms)
		all = append(all, ms)
		requested += float64(r.spec.Cells() * r.spec.Accesses)
	}
	out.rounds = len(lat)

	// Output check: seed-chosen jobs from the ones every run has.
	var firsts []jobRec
	for _, r := range recs {
		if r.k < jobCycle {
			firsts = append(firsts, r)
		}
	}
	for _, i := range pick(o.seed, len(firsts), checkCells) {
		out.checked++
		if r := firsts[i]; r.ok && !checkJobCSV(ctx, r.spec, r.csv) {
			out.failed++
		}
	}

	if !o.trace {
		out.metrics["setup_s"] = median(setupTimes)
		out.metrics["maccess_per_s"] = requested / wall.Seconds() / 1e6
		out.metrics["peak_rss_mb"] = rss
		out.metrics["op_ms_p50"] = roundQuantile(lat, 0.5)
		out.metrics["op_ms_p90"] = roundQuantile(lat, 0.9)
		return out, nil
	}

	// Traced phase: the same loop with each job's lifecycle spanned.
	t := newTracer()
	trecs, _ := clientLoop(ctx, m, w, o.seed, 0, next, o.window(), jobCycle, t)
	var tlat []float64
	for _, r := range trecs {
		out.attempted++
		if !r.ok {
			out.failed++
			continue
		}
		tlat = append(tlat, r.latency.Seconds()*1000)
	}
	store1, memo1 := m.Engine().Store().Stats(), m.Engine().MemoStats()

	// Cell pass: the cells of each client's first fresh jobs through
	// the traced cell function and the probes, for the replay layers
	// the manager's engine runs out of sight.
	var plan engine.Plan
	for k := 0; k < 6; k++ {
		if k%4 == 3 {
			continue // a re-submitted spec: its cells are already in
		}
		for c := 0; c < clients; c++ {
			p, err := w.jobSpec(o.seed, c, k).Plan()
			if err != nil {
				return nil, err
			}
			plan.Cells = append(plan.Cells, p.Cells...)
			plan.Accesses = p.Accesses
		}
	}
	cfg := engine.Config{Workers: workers, KeepGoing: true}
	cells, cellWall, failed, err := tracedRound(ctx, t, plan, cfg, "cells")
	if err != nil {
		return nil, err
	}
	out.attempted += len(plan.Cells)
	out.failed += failed
	pr, err := probe(ctx, t, plan, cfg)
	if err != nil {
		return nil, err
	}
	if err := probeJournal(t, dir, cells[0].rep); err != nil {
		return nil, err
	}
	out.spans = t.all()
	out.metrics = layerMetrics(layerInputs{
		spans: out.spans,
		cells: cells,
		probe: pr,
		store: tracestore.Stats{
			Hits:       store1.Hits - store0.Hits,
			Misses:     store1.Misses - store0.Misses,
			Demotions:  store1.Demotions - store0.Demotions,
			BytesInUse: store1.BytesInUse,
		},
		memo: engine.MemoStats{
			Hits:   memo1.Hits - memo0.Hits,
			Misses: memo1.Misses - memo0.Misses,
		},
		busyWall: cellWall.Seconds(),
		overhead: ratio(median(tlat), median(all)) - 1,
	})
	return out, nil
}

// clientLoop runs len(next) closed-loop clients, numbered from
// firstClient, each in whole blocks of jobs until window has passed.
// next[c] is client c's next job number and advances. The records come
// back sorted by client and job number.
func clientLoop(ctx context.Context, m *jobs.Manager, w workloadDef, seed uint64, firstClient int, next []int,
	window time.Duration, block int, t *tracer) ([]jobRec, time.Duration) {
	start := time.Now()
	until := start.Add(window)
	var mu sync.Mutex
	var recs []jobRec
	var wg sync.WaitGroup
	for c := range next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := firstClient + c
			for n := 0; n%block != 0 || n == 0 || time.Now().Before(until); n++ {
				k := next[c]
				next[c]++
				r := runJob(ctx, m, w.jobSpec(seed, client, k), fmt.Sprintf("client-%d", client), t)
				r.client, r.k = client, k
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].client != recs[j].client {
			return recs[i].client < recs[j].client
		}
		return recs[i].k < recs[j].k
	})
	return recs, wall
}

// runJob submits spec, waits for the job to finish and reads its CSV
// to EOF. With a tracer it also follows the job's event stream, to
// split the latency into submit, first cell, rest of the run and CSV
// read.
func runJob(ctx context.Context, m *jobs.Manager, spec jobs.Spec, client string, t *tracer) jobRec {
	rec := jobRec{spec: spec}
	start := time.Now()
	j, err := m.Submit(spec, client)
	submitted := time.Now()
	if err != nil {
		fmt.Fprintf(os.Stderr, "submit %v: %v\n", spec, err)
		return rec
	}
	var firstCell time.Time
	streamed := make(chan struct{})
	if t != nil {
		go func() {
			defer close(streamed)
			_ = j.Stream(ctx, func(ev jobs.Event) error {
				if ev.Type == "cell" && firstCell.IsZero() {
					firstCell = time.Now()
				}
				return nil
			})
		}()
	} else {
		close(streamed)
	}
	<-j.Finished()
	finished := time.Now()
	<-streamed
	if st := j.Status(); st.State != jobs.StateDone {
		fmt.Fprintf(os.Stderr, "job %s ended %s: %s\n", j.ID(), st.State, st.Error)
		return rec
	}
	f, err := m.ResultCSV(j.ID())
	if err != nil {
		fmt.Fprintf(os.Stderr, "job %s: %v\n", j.ID(), err)
		return rec
	}
	rec.csv, err = io.ReadAll(f)
	f.Close()
	end := time.Now()
	rec.latency, rec.ok = end.Sub(start), err == nil

	if t != nil {
		if firstCell.IsZero() {
			firstCell = finished
		}
		root := t.record(0, j.ID(), "job", start, end)
		t.record(root, j.ID(), "jobs.submit", start, submitted)
		t.record(root, j.ID(), "jobs.first_cell", submitted, firstCell)
		t.record(root, j.ID(), "jobs.run", firstCell, finished)
		t.record(root, j.ID(), "jobs.csv", finished, end)
	}
	return rec
}

// shutdown drains a manager; a drain that overruns is abandoned, as
// the daemon's own shutdown does.
func shutdown(m *jobs.Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "shutting down the job manager: %v\n", err)
	}
}
