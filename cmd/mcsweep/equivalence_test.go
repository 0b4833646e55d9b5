package main

// Golden equivalence tests for the internal/engine refactor: the
// engine-backed mcsweep must produce byte-identical CSV output to the
// pre-refactor execution path. referenceSweepCSV below IS that old
// path, hand-wired exactly as cmd/mcsweep used to do it — a direct
// tracestore + runner + sim composition with inline CSV rendering —
// so any drift in row content, formatting, ordering or header shows up
// as a byte diff.

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mobilecache/internal/runner"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// quickSpec is the equivalence matrix: every standard machine x the
// first three app profiles x one seed.
func quickSpec(t *testing.T) (Spec, string) {
	t.Helper()
	apps := workload.Profiles()[:3]
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	spec := Spec{
		Machines: sim.StandardMachineNames(),
		Apps:     names,
		Seeds:    []uint64{1},
		Accesses: 6000,
	}
	b, err := os.CreateTemp(t.TempDir(), "spec*.json")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, `{"machines":[%s],"apps":[%s],"seeds":[1],"accesses":%d}`,
		`"`+strings.Join(spec.Machines, `","`)+`"`,
		`"`+strings.Join(spec.Apps, `","`)+`"`,
		spec.Accesses)
	b.Close()
	return spec, b.Name()
}

// referenceSweepCSV renders the spec's grid exactly the way mcsweep
// did before the engine refactor: a shared trace arena, the runner
// worker pool over (machine, app, seed) cells in spec order, and the
// CSV schema with identical formatting verbs.
func referenceSweepCSV(t *testing.T, spec Spec, rcfg runner.Config) []byte {
	t.Helper()
	store := tracestore.New(0)

	type resolved struct {
		machine string
		app     workload.Profile
		seed    uint64
	}
	var cells []resolved
	var rcells []runner.Cell
	index := map[runner.Cell]int{}
	for _, mName := range spec.Machines {
		for _, aName := range spec.Apps {
			prof, err := workload.ProfileByName(aName)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range spec.Seeds {
				rc := runner.Cell{Machine: mName, App: prof.Name, Seed: seed}
				index[rc] = len(cells)
				cells = append(cells, resolved{machine: mName, app: prof, seed: seed})
				rcells = append(rcells, rc)
			}
		}
	}

	outcomes, err := runner.Run(context.Background(), rcfg, rcells,
		func(_ context.Context, rc runner.Cell) (sim.RunReport, error) {
			c := cells[index[rc]]
			cfg, err := sim.MachineByName(c.machine)
			if err != nil {
				return sim.RunReport{}, err
			}
			return sim.Run(store, cfg, c.app, c.seed, spec.Warmup, spec.Accesses, sample.Spec{})
		})
	if err != nil && !rcfg.KeepGoing {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write([]string{
		"machine", "app", "seed", "accesses",
		"ipc", "l2_missrate", "l2_kernel_share",
		"l2_read_j", "l2_write_j", "l2_leakage_j", "l2_refresh_j", "l2_total_j",
		"dram_reads", "dram_writes", "hierarchy_total_j",
		"l2_powered_bytes",
	}); err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		if o.Err != nil {
			continue
		}
		rep := o.Value
		bd := rep.Energy.L2
		cfg, err := sim.MachineByName(cells[i].machine)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write([]string{
			cfg.Name, cells[i].app.Name, strconv.FormatUint(cells[i].seed, 10),
			strconv.FormatUint(rep.CPU.Accesses, 10),
			fmt.Sprintf("%.6f", rep.IPC()),
			fmt.Sprintf("%.6f", rep.L2.MissRate()),
			fmt.Sprintf("%.6f", rep.L2.KernelShare()),
			fmt.Sprintf("%.6g", bd.ReadJ),
			fmt.Sprintf("%.6g", bd.WriteJ),
			fmt.Sprintf("%.6g", bd.LeakageJ),
			fmt.Sprintf("%.6g", bd.RefreshJ),
			fmt.Sprintf("%.6g", bd.Total()),
			strconv.FormatUint(rep.DRAMReads, 10),
			strconv.FormatUint(rep.DRAMWrites, 10),
			fmt.Sprintf("%.6g", rep.Energy.TotalJ()),
			strconv.FormatUint(rep.L2PoweredBytes, 10),
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenEquivalencePlainSweep: the refactored mcsweep CSV is
// byte-identical to the pre-refactor path on the quick standard-machine
// x 3-app matrix, at both serial and parallel worker counts.
func TestGoldenEquivalencePlainSweep(t *testing.T) {
	spec, specPath := quickSpec(t)
	want := referenceSweepCSV(t, spec, runner.Config{Workers: 4})

	for _, jobs := range []string{"1", "8"} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-spec", specPath, "-jobs", jobs}, &out, &errOut); err != nil {
			t.Fatalf("jobs=%s: %v\nstderr: %s", jobs, err, errOut.String())
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("jobs=%s: engine-backed CSV diverges from the pre-refactor reference\ngot:\n%s\nwant:\n%s",
				jobs, out.String(), want)
		}
	}
}

// TestGoldenEquivalenceKeepGoingChaos: under injected failures with
// -keep-going, the healthy rows are byte-identical to the pre-refactor
// keep-going path run under the same chaos.
func TestGoldenEquivalenceKeepGoingChaos(t *testing.T) {
	spec, specPath := quickSpec(t)
	chaos := &sim.Chaos{ErrorRate: 0.3, Seed: 11}

	restore := sim.InstallChaos(chaos)
	want := referenceSweepCSV(t, spec, runner.Config{Workers: 4, KeepGoing: true})
	restore()
	if bytes.Count(want, []byte("\n")) == 1+len(spec.Machines)*len(spec.Apps) {
		t.Fatal("chaos failed no cells; the keep-going path is untested")
	}

	restore = sim.InstallChaos(chaos)
	defer restore()
	var out, errOut bytes.Buffer
	err := run([]string{"-spec", specPath, "-jobs", "4", "-keep-going"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "cells failed") {
		t.Fatalf("keep-going sweep with failures returned %v, want a cells-failed error", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("keep-going CSV diverges from the pre-refactor reference\ngot:\n%s\nwant:\n%s",
			out.String(), want)
	}
}

// TestGoldenEquivalenceResumedAuditedSweep is the acceptance scenario:
// a chaos-wounded, checkpointed, keep-going, strict-audited sweep that
// is then resumed without chaos must produce a final CSV byte-identical
// to the pre-refactor path running uninterrupted.
func TestGoldenEquivalenceResumedAuditedSweep(t *testing.T) {
	spec, specPath := quickSpec(t)
	want := referenceSweepCSV(t, spec, runner.Config{Workers: 4})
	ck := filepath.Join(t.TempDir(), "sweep.ckpt")

	restore := sim.InstallChaos(&sim.Chaos{ErrorRate: 0.3, Seed: 11})
	var out1, errOut1 bytes.Buffer
	err := run([]string{"-spec", specPath, "-jobs", "4", "-keep-going", "-audit", "strict",
		"-checkpoint", ck}, &out1, &errOut1)
	restore()
	if err == nil {
		t.Fatal("wounded sweep reported success; chaos failed no cells")
	}
	if !strings.Contains(errOut1.String(), "checkpoint:") {
		t.Fatalf("no checkpoint summary on stderr:\n%s", errOut1.String())
	}

	var out2, errOut2 bytes.Buffer
	err = run([]string{"-spec", specPath, "-jobs", "4", "-keep-going", "-audit", "strict",
		"-checkpoint", ck, "-resume"}, &out2, &errOut2)
	if err != nil {
		t.Fatalf("resumed sweep failed: %v\nstderr: %s", err, errOut2.String())
	}
	if !bytes.Equal(out2.Bytes(), want) {
		t.Fatalf("resumed sweep CSV diverges from the uninterrupted pre-refactor reference\ngot:\n%s\nwant:\n%s",
			out2.String(), want)
	}
	if !strings.Contains(errOut2.String(), "resumed") {
		t.Fatalf("resume summary missing from stderr:\n%s", errOut2.String())
	}
}
