// Dynamic partition walkthrough: drive the paper's dynamic design with
// a usage session that moves between apps, and watch the controller
// reallocate and power-gate ways epoch by epoch.
//
// Run with:
//
//	go run ./examples/dynamicpartition
package main

import (
	"fmt"
	"log"
	"strings"

	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

func main() {
	// A session: heavy browsing, then music in the background, then a
	// game — demand for L2 capacity changes at each transition.
	session := []string{"browser", "music", "game"}
	const perApp = 150_000
	const seed = 11

	var gens []trace.Source
	for i, name := range session {
		app, err := workload.ProfileByName(name)
		if err != nil {
			log.Fatal(err)
		}
		g, err := workload.NewGenerator(app, seed+uint64(i), workload.PhaseLen(app, perApp))
		if err != nil {
			log.Fatal(err)
		}
		gens = append(gens, g)
	}
	src := workload.NewPhasedSource(perApp, gens...)

	cfg, err := sim.MachineByName("dp-sr")
	if err != nil {
		log.Fatal(err)
	}
	m, err := sim.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep := sim.RunTrace(m, strings.Join(session, "->"), src, 0)

	fmt.Printf("session %s on %s (%d L2 accesses)\n\n", rep.Workload, rep.Machine, rep.L2.TotalAccesses())
	fmt.Println("epoch  at access   user ways         kernel ways       gated")
	for _, d := range rep.History {
		fmt.Printf("%5d  %9d  %-16s  %-16s  %d\n",
			d.Epoch, d.AtAccess,
			strings.Repeat("u", d.UserWays),
			strings.Repeat("k", d.KernelWays),
			d.GatedWays)
	}

	fmt.Printf("\nfinal powered capacity: %d KB of %d KB installed\n",
		rep.L2PoweredBytes>>10, rep.L2InstalledBytes>>10)
	fmt.Printf("repartition flush writebacks: %d\n", rep.FlushWritebacks)
	fmt.Printf("L2 energy: %.3g J (leakage %.3g J, refresh %.3g J)\n",
		rep.Energy.L2.Total(), rep.Energy.L2.LeakageJ, rep.Energy.L2.RefreshJ)
	fmt.Printf("IPC: %.4f\n", rep.IPC())
}
