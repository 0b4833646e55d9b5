package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"mobilecache/internal/engine"
	"mobilecache/internal/jobs"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/workload"
)

// workers is the engine's worker count in every workload, and the
// daemon's worker slots. The host the benchmark was sized on has two
// vCPUs: one worker leaves the second to the Go runtime (garbage
// collection, the daemon's I/O goroutines), which kept round times
// much steadier there than two workers did (README.md, "Load").
const workers = 1

// clients is the daemon workload's closed-loop client count.
const clients = 2

// workloadDef is one set of inputs. The seed picks only the trace
// seeds: the app mix is fixed per workload, so runs at different seeds
// do the same kind of work and their spread is host noise, not a
// different app mix.
type workloadDef struct {
	name string
	why  string
	// machines lists standard machine names; nil means all seven.
	machines []string
	// apps lists workload profiles; nil means all ten.
	apps     []string
	seeds    int // trace seeds per app (sweeps)
	accesses int // per cell
	sample   string
	// budgetMB is the trace arena budget (0 keeps the engine default),
	// as mcsweep -trace-cache-mb sets it.
	budgetMB int
	daemon   bool
}

var workloads = []workloadDef{
	{
		name:     wShared,
		why:      "the paper's grid: 7 machines replay each of 3 traces from the hot arena tier, so replay dominates",
		apps:     []string{"browser", "email", "maps"}, // mcsweep's quick matrix
		seeds:    1,
		accesses: 400_000,
	},
	{
		name:     wUnique,
		why:      "every cell owns its trace under a 32 MiB arena, so generation, packing and packed decode dominate and nothing is shared",
		machines: []string{"dp-sr"},
		seeds:    2,
		accesses: 400_000,
		budgetMB: 32,
	},
	{
		name:     wSampled,
		why:      "1/8 set sampling of 7 machines x 10 apps: derived traces, the sample filter and 70 small cells, where per-cell overheads show",
		seeds:    1,
		accesses: 400_000,
		sample:   "1/8",
	},
	{
		name:     wDaemon,
		why:      "2 closed-loop clients submit 7-machine jobs to an in-process job manager: the only durable writes, and repeated specs hit the memo",
		accesses: 100_000,
		daemon:   true,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workloadDef) machineNames() []string {
	if w.machines != nil {
		return w.machines
	}
	return sim.StandardMachineNames()
}

func (w workloadDef) appNames() []string {
	if w.apps != nil {
		return w.apps
	}
	return workload.ProfileNames()
}

// traceSeed draws a generator seed. The seeds are small positive
// numbers, as a user would type them into a sweep spec.
func traceSeed(rng *rand.Rand) uint64 { return rng.Uint64N(1<<20) + 1 }

// sweepPlan resolves the workload's grid into an engine plan, with the
// trace seeds drawn from seed. It is the set-up work a sweep front end
// does before its first cell runs.
func (w workloadDef) sweepPlan(seed uint64) (engine.Plan, error) {
	var machines []engine.MachineSpec
	for _, name := range w.machineNames() {
		cfg, err := engine.ResolveMachine(name)
		if err != nil {
			return engine.Plan{}, err
		}
		machines = append(machines, engine.MachineSpec{Label: name, Config: cfg})
	}
	var apps []workload.Profile
	for _, name := range w.appNames() {
		prof, err := workload.ProfileByName(name)
		if err != nil {
			return engine.Plan{}, err
		}
		apps = append(apps, prof)
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	seeds := make([]uint64, w.seeds)
	for i := range seeds {
		seeds[i] = traceSeed(rng)
	}
	plan := engine.Grid(machines, apps, seeds, w.accesses, 0)
	if w.sample != "" {
		spec, err := sample.Parse(w.sample)
		if err != nil {
			return engine.Plan{}, err
		}
		plan.Sample = spec
	}
	return plan, nil
}

// engineConfig is the engine a sweep round runs on: a fresh one per
// round, as one mcsweep invocation builds.
func (w workloadDef) engineConfig() engine.Config {
	cfg := engine.Config{Workers: workers, KeepGoing: true}
	if w.budgetMB > 0 {
		cfg.TraceBudgetBytes = engine.TraceBudgetMB(w.budgetMB)
	}
	return cfg
}

// jobSpec is client's k-th daemon job under seed. Fresh jobs rotate
// through the apps so every run sees the same mix; every fourth job
// re-submits the client's job from two jobs earlier verbatim, whose
// cells the engine's run memo still holds.
func (w workloadDef) jobSpec(seed uint64, client, k int) jobs.Spec {
	if k%4 == 3 {
		k -= 2
	}
	apps := w.appNames()
	rng := rand.New(rand.NewPCG(seed, uint64(client)<<32|uint64(k)))
	return jobs.Spec{
		Machines: w.machineNames(),
		Apps:     []string{apps[(2*k+client)%len(apps)]},
		Seeds:    []uint64{traceSeed(rng)},
		Accesses: w.accesses,
	}
}

// pick chooses k of n indices from seed, in increasing order.
func pick(seed uint64, n, k int) []int {
	if k > n {
		k = n
	}
	idx := rand.New(rand.NewPCG(seed, 1)).Perm(n)[:k]
	sort.Ints(idx)
	return idx
}
