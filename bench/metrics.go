package main

import (
	"math"
	"sort"
)

// metric is one number the benchmark reports. The end-to-end set is
// what a user of the simulator sees, measured with tracing off; the
// per-layer set comes from the traced run and explains movements of
// the end-to-end set. BENCHMARK.json lists the same names, units and
// directions (the schema test keeps the two in step) and holds the
// end-to-end bounds.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// moves and on are a per-layer metric's prediction, written down
	// before any change is measured: the end-to-end metric a change to
	// this layer should move, and the workloads where it should move
	// it. Harness-health metrics predict nothing and leave both empty.
	moves string
	on    []string
}

const (
	wShared  = "sweep-shared"
	wUnique  = "sweep-unique"
	wSampled = "sweep-sampled"
	wDaemon  = "daemon-jobs"
)

var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "maccess_per_s", unit: "Maccess/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "op_ms_p50", unit: "ms", better: "lower"},
	{name: "op_ms_p90", unit: "ms", better: "lower"},
}

var perLayer = []metric{
	// Replay, split into decode or precompute, the hierarchy frame loop
	// and the CPU loop's own residual.
	{"sim.replay_ns_per_access", "ns", "lower", "maccess_per_s", []string{wShared, wUnique, wSampled}},
	{"sim.replay_hot_ns_per_access", "ns", "lower", "maccess_per_s", []string{wShared, wSampled}},
	{"sim.replay_packed_ns_per_access", "ns", "lower", "maccess_per_s", []string{wUnique}},
	{"trace.decode_ns_per_access", "ns", "lower", "maccess_per_s", []string{wUnique}},
	{"trace.precompute_ns_per_access", "ns", "lower", "maccess_per_s", []string{wShared, wSampled}},
	{"mem.frame_ns_per_access", "ns", "lower", "maccess_per_s", []string{wShared, wUnique, wSampled}},
	{"cpu.self_ns_per_access", "ns", "lower", "maccess_per_s", []string{wShared, wUnique, wSampled}},
	// The trace arena's tiers.
	{"tracestore.hot_replay_frac", "ratio", "higher", "maccess_per_s", []string{wShared, wSampled}},
	{"tracestore.resident_mb", "MB", "lower", "peak_rss_mb", []string{wShared, wSampled}},
	{"tracestore.demotions", "count", "lower", "peak_rss_mb", []string{wUnique}},
	{"trace.packed_bytes_per_access", "B", "lower", "peak_rss_mb", []string{wShared, wUnique, wSampled}},
	// Trace generation and arena lookups.
	{"workload.gen_ns_per_access", "ns", "lower", "maccess_per_s", []string{wUnique, wShared}},
	{"trace.pack_ns_per_access", "ns", "lower", "maccess_per_s", []string{wUnique, wShared}},
	{"tracestore.miss_ms", "ms", "lower", "maccess_per_s", []string{wUnique, wShared}},
	{"tracestore.hit_us", "us", "lower", "maccess_per_s", []string{wShared, wSampled}},
	{"tracestore.hit_ratio", "ratio", "higher", "maccess_per_s", []string{wShared, wSampled}},
	// Set sampling.
	{"sample.filter_ns_per_access", "ns", "lower", "maccess_per_s", []string{wSampled}},
	{"sample.kept_frac", "ratio", "lower", "peak_rss_mb", []string{wSampled}},
	{"tracestore.derive_ms", "ms", "lower", "maccess_per_s", []string{wSampled}},
	// Exact simulated counts that explain frame-loop cost.
	{"core.dp_epochs", "count", "lower", "maccess_per_s", []string{wUnique, wShared}},
	{"core.flush_writebacks", "count", "lower", "maccess_per_s", []string{wUnique, wShared}},
	{"core.l2_miss_frac", "ratio", "lower", "maccess_per_s", []string{wUnique, wShared}},
	{"mem.l1_hit_frac", "ratio", "higher", "maccess_per_s", []string{wUnique, wShared}},
	{"mem.dram_per_kaccess", "1/kaccess", "lower", "maccess_per_s", []string{wUnique, wShared}},
	// Per-cell overheads around replay.
	{"sim.build_us", "us", "lower", "maccess_per_s", []string{wSampled}},
	{"sim.audit_us", "us", "lower", "maccess_per_s", []string{wSampled}},
	{"engine.key_us", "us", "lower", "maccess_per_s", []string{wSampled}},
	{"engine.sink_us", "us", "lower", "maccess_per_s", []string{wSampled}},
	{"engine.cell_ms_p50", "ms", "lower", "op_ms_p50", []string{wSampled, wShared}},
	{"engine.cell_ms_p90", "ms", "lower", "op_ms_p90", []string{wSampled, wShared}},
	{"runner.busy_frac", "ratio", "higher", "maccess_per_s", []string{wSampled}},
	// The daemon's durable job lifecycle.
	{"checkpoint.append_us", "us", "lower", "op_ms_p50", []string{wDaemon}},
	{"checkpoint.sync_ms", "ms", "lower", "op_ms_p50", []string{wDaemon}},
	{"jobs.submit_ms", "ms", "lower", "op_ms_p50", []string{wDaemon}},
	{"jobs.first_cell_ms", "ms", "lower", "op_ms_p50", []string{wDaemon}},
	{"jobs.run_ms", "ms", "lower", "op_ms_p50", []string{wDaemon}},
	{"jobs.csv_ms", "ms", "lower", "op_ms_p90", []string{wDaemon}},
	{"engine.memo_hit_ratio", "ratio", "higher", "op_ms_p50", []string{wDaemon}},
	{"engine.memo_hit_us", "us", "lower", "op_ms_p50", []string{wDaemon}},
	// Harness health.
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "bench.span_coverage", unit: "ratio", better: "higher"},
	{name: "bench.reconcile_err", unit: "ratio", better: "lower"},
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// roundQuantile is the median over rounds of each round's q-quantile.
// The host slows down in spells of a few seconds; a spell moves a few
// rounds' quantiles, which the median passes over, where it would move
// the q-quantile of all rounds pooled.
func roundQuantile(rounds [][]float64, q float64) float64 {
	qs := make([]float64, 0, len(rounds))
	for _, xs := range rounds {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not
// exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
