// Multi-app session: three apps run concurrently under round-robin
// scheduling — distinct user address spaces, one shared kernel — and
// the four main designs are compared on the resulting stream.
//
// This is the stimulus closest to how a phone actually runs: user
// working sets compete and get cold-switched, while kernel blocks stay
// warm across context switches, which is exactly the asymmetry the
// paper's user/kernel partitioning exploits.
//
// Run with:
//
//	go run ./examples/multiapp
package main

import (
	"fmt"
	"log"

	"mobilecache/internal/sim"
	"mobilecache/internal/workload"
)

func main() {
	apps := []string{"browser", "social", "music"}
	const total = 450_000
	const quantum = 3000 // accesses per scheduling slice

	fmt.Printf("session: %v, %d accesses, quantum %d\n\n", apps, total, quantum)

	type row struct {
		name   string
		energy float64
		ipc    float64
		kernel float64
	}
	var rows []row
	for _, name := range []string{"baseline-sram", "baseline-drowsy", "sp-mr", "dp-sr"} {
		// Each machine replays the identical session stream.
		src, err := workload.MultiAppSession(apps, 11, quantum, total)
		if err != nil {
			log.Fatal(err)
		}
		cfg, err := sim.MachineByName(name)
		if err != nil {
			log.Fatal(err)
		}
		m, err := sim.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sim.RunSampledTrace(m, "session", src, 0)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{name, rep.L2EnergyJ(), rep.IPC(), rep.L2.KernelShare()})
	}

	base := rows[0]
	fmt.Printf("%-16s %12s %10s %12s %10s\n", "scheme", "L2 energy", "IPC", "norm energy", "kernel share")
	for _, r := range rows {
		fmt.Printf("%-16s %10.3g J %10.4f %12.3f %11.1f%%\n",
			r.name, r.energy, r.ipc, r.energy/base.energy, r.kernel*100)
	}
	fmt.Println("\nkernel blocks survive the context switches (shared address space),")
	fmt.Println("so the kernel segment/ways stay effective across the whole session.")
}
