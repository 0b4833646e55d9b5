// Package mobilecache is the public API of the mobilecache simulator —
// a reproduction of "Energy-efficient cache design in emerging mobile
// platforms" (DATE 2015; TODAES 22(4) 2017) by Yan, Peng, Chen and Fu.
//
// The library simulates a mobile SoC memory hierarchy (in-order core,
// split L1s, shared L2, LPDDR-class DRAM) driven by synthetic
// interactive-app traces whose accesses are tagged with the privilege
// domain (user / OS kernel), and implements the paper's three L2
// designs on top of it:
//
//   - a static user/kernel partition with shrunk segment sizes,
//   - the same partition built from multi-retention STT-RAM, and
//   - a dynamic way-partitioned design that power-gates surplus ways,
//     optionally in short-retention STT-RAM.
//
// Quick start:
//
//	app, _ := mobilecache.ProfileByName("browser")
//	baseline, _ := mobilecache.StandardMachine("baseline-sram")
//	rep, _ := mobilecache.Run(baseline, app, 1, 200_000)
//	fmt.Println(rep.L2EnergyJ(), rep.IPC())
//
// Every table and figure of the paper's evaluation can be regenerated
// via RunExperiment (IDs E1..E21, T1..T3) or the cmd/mcbench tool.
package mobilecache

import (
	"context"

	"mobilecache/internal/config"
	"mobilecache/internal/experiments"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

// Domain identifies the privilege level of an access.
type Domain = trace.Domain

// Domain values.
const (
	User   = trace.User
	Kernel = trace.Kernel
)

// Access is one memory-trace record.
type Access = trace.Access

// Op is a memory operation kind.
type Op = trace.Op

// Op values.
const (
	Load   = trace.Load
	Store  = trace.Store
	Ifetch = trace.Ifetch
)

// Profile parameterizes a synthetic mobile application.
type Profile = workload.Profile

// Machine is a declarative machine description.
type Machine = config.Machine

// RunReport is the outcome of one simulation.
type RunReport = sim.RunReport

// ExperimentResult is a regenerated paper table/figure.
type ExperimentResult = experiments.Result

// ExperimentOptions scales an experiment run.
type ExperimentOptions = experiments.Options

// Profiles returns the ten interactive-app profiles of the evaluation.
func Profiles() []Profile { return workload.Profiles() }

// ProfileByName finds an app profile by name.
func ProfileByName(name string) (Profile, error) { return workload.ProfileByName(name) }

// GenerateTrace materializes n accesses of an app profile.
func GenerateTrace(p Profile, seed uint64, n int) ([]Access, error) {
	return workload.Generate(p, seed, n)
}

// StandardMachines returns the seven machine configurations the paper
// compares (baseline-sram, baseline-stt, baseline-drowsy, sp, sp-mr,
// dp, dp-sr).
func StandardMachines() []Machine { return sim.StandardMachines() }

// StandardMachine finds one standard machine by name.
func StandardMachine(name string) (Machine, error) { return sim.MachineByName(name) }

// DefaultMachine is the 1MB SRAM baseline all comparisons normalize to.
func DefaultMachine() Machine { return config.Default() }

// Run simulates an app on a machine and reports timing, cache and
// energy statistics. Machines are built fresh (cold caches) per run.
func Run(m Machine, p Profile, seed uint64, accesses int) (RunReport, error) {
	return sim.Run(context.TODO(), nil, m, p, seed, 0, accesses, sample.Spec{})
}

// ExperimentIDs lists the reproducible paper experiments in order.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table/figure by ID.
func RunExperiment(id string, opts ExperimentOptions) (ExperimentResult, error) {
	return experiments.Run(id, opts)
}

// DefaultExperimentOptions is the full-scale experiment configuration.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }
