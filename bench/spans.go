package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// round (or one daemon job) share a trace name; a child names the span
// that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Machine and App label cell, job and probe spans.
	Machine string `json:"machine,omitempty"`
	App     string `json:"app,omitempty"`
	// N is the work the span covered in records, where that is the
	// denominator of a per-access metric.
	N int64 `json:"n,omitempty"`
	// Note qualifies the call: "hot"/"packed" for a replay,
	// "miss"/"hit" for an arena lookup.
	Note string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the length of a run; they are
// written out once, when the benchmark ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns it with
// its ID assigned, so children can name it before it ends.
func (t *tracer) begin(parent int64, trace, name string) span {
	return span{ID: t.ids.Add(1), Parent: parent, Trace: trace, Name: name, Start: t.at(time.Now())}
}

// end closes s now and keeps it.
func (t *tracer) end(s span) span { return t.keep(s, time.Now()) }

// keep closes s at end and keeps it.
func (t *tracer) keep(s span, end time.Time) span {
	s.End = t.at(end)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// record keeps a span that ran from from to to and returns its ID.
func (t *tracer) record(parent int64, trace, name string, from, to time.Time) int64 {
	s := t.begin(parent, trace, name)
	s.Start = t.at(from)
	return t.keep(s, to).ID
}

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// all returns a copy of the kept spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans to path as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanStats aggregates kept spans by name.
type spanStats map[string][]span

func groupSpans(spans []span) spanStats {
	g := spanStats{}
	for _, s := range spans {
		g[s.Name] = append(g[s.Name], s)
	}
	return g
}

// matching returns the named spans whose note matches (any note when
// note is empty).
func (g spanStats) matching(name, note string) []span {
	var out []span
	for _, s := range g[name] {
		if note == "" || s.Note == note {
			out = append(out, s)
		}
	}
	return out
}

// quantileOf is the q-quantile duration of the named spans, in unit.
func (g spanStats) quantileOf(name string, q, unit float64) float64 {
	return durQuantile(g[name], q, unit)
}

// medianOf is the median duration, in unit, of the matching spans.
func (g spanStats) medianOf(name, note string, unit float64) float64 {
	return durQuantile(g.matching(name, note), 0.5, unit)
}

func durQuantile(spans []span, q, unit float64) float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = float64(s.dur()) / unit
	}
	return quantile(xs, q)
}

// total is the summed duration and work of the matching spans.
func (g spanStats) total(name, note string) (time.Duration, int64) {
	var d time.Duration
	var n int64
	for _, s := range g.matching(name, note) {
		d += s.dur()
		n += s.N
	}
	return d, n
}

// coverage is the share of parent spans' time their children cover.
func coverage(spans []span, parents ...string) float64 {
	isParent := map[int64]bool{}
	var parentTime, childTime time.Duration
	for _, s := range spans {
		for _, p := range parents {
			if s.Name == p {
				isParent[s.ID] = true
				parentTime += s.dur()
			}
		}
	}
	for _, s := range spans {
		if isParent[s.Parent] {
			childTime += s.dur()
		}
	}
	return ratio(float64(childTime), float64(parentTime))
}
