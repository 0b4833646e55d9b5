package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"

	"mobilecache/internal/engine"
	"mobilecache/internal/jobs"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

// checkCells is how many cells (or daemon jobs) each run compares
// against references. The model is unvalidated against hardware, so
// the check is exact equality of simulated results, not accuracy.
const checkCells = 10

// checkReport compares plan cell i's report with a reference made by
// the plain workload entry points: the trace is generated afresh, with
// neither the arena nor the memo, and a sampled cell is filtered live
// instead of from a cached derived trace.
func checkReport(plan engine.Plan, i int, got sim.RunReport) bool {
	c := plan.Cells[i]
	want, err := sim.RunWorkloadSampled(c.Config, c.Profile, c.Seed, plan.Accesses, plan.Sample)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reference for %s/%s: %v\n", c.Machine, c.App, err)
		return false
	}
	return reflect.DeepEqual(want, got)
}

// checkSampledRaw compares the unscaled report of a traced sampled
// cell with the same machine replaying a freshly generated trace
// through the live sample filter.
func checkSampledRaw(plan engine.Plan, i int, got sim.RunReport) bool {
	c := plan.Cells[i]
	m, err := sim.BuildSampled(c.Config, plan.Sample)
	if err != nil {
		return false
	}
	gen, err := workload.NewGenerator(c.Profile, c.Seed, workload.PhaseLen(c.Profile, plan.Accesses))
	if err != nil {
		return false
	}
	src := sample.NewSource(m.Sample, trace.NewLimitSource(gen, plan.Accesses))
	return reflect.DeepEqual(sim.RunTrace(m, c.Profile.Name, src, 0), got)
}

// checkJobCSV compares a daemon job's result CSV byte for byte with a
// fresh engine executing the same spec into the CSV sink.
func checkJobCSV(ctx context.Context, spec jobs.Spec, got []byte) bool {
	plan, err := spec.Plan()
	if err != nil {
		return false
	}
	var buf bytes.Buffer
	_, err = engine.New(engine.Config{Workers: workers}).Execute(ctx, plan, engine.ExecOptions{}, engine.NewCSV(&buf))
	return err == nil && bytes.Equal(buf.Bytes(), got)
}

// csvLine returns line i (0-based, without its newline) of a CSV, or
// nil when there is no such line.
func csvLine(csv []byte, i int) []byte {
	lines := bytes.Split(csv, []byte("\n"))
	if i >= len(lines) {
		return nil
	}
	return lines[i]
}

// diffLines counts the lines of b that differ from a's line at the
// same position, plus any length difference.
func diffLines(a, b []byte) int {
	if bytes.Equal(a, b) {
		return 0
	}
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(la) - len(lb)
	if n < 0 {
		n, la, lb = -n, lb, la
	}
	for i := range lb {
		if !bytes.Equal(la[i], lb[i]) {
			n++
		}
	}
	return n
}
