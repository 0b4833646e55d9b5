// Static partition walkthrough: capture an app's L2-level access
// stream, run the paper's segment-sizing search, and assemble the
// multi-retention static design from the result.
//
// This is the full "static technique" pipeline of the paper:
//
//  1. observe that user and kernel accesses interfere in a shared L2;
//  2. sweep isolated per-domain segment sizes against the captured L2
//     stream and pick the smallest pair that holds the baseline miss
//     rate (the shrink);
//  3. match each segment's STT-RAM retention class to its measured
//     block lifetimes.
//
// Run with:
//
//	go run ./examples/staticpartition
package main

import (
	"context"
	"fmt"
	"log"

	"mobilecache/internal/cache"
	"mobilecache/internal/config"
	"mobilecache/internal/core"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/sttram"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

func main() {
	app, err := workload.ProfileByName("social")
	if err != nil {
		log.Fatal(err)
	}
	const seed, accesses = 7, 400_000

	// Step 1: run the baseline and capture the L2-level stream with a
	// recording L2 (demand fills + writebacks, with domains).
	baselineCfg := config.Default()
	m, err := sim.Build(baselineCfg)
	if err != nil {
		log.Fatal(err)
	}
	rec := &core.L2Recorder{L2: m.Hier.L2}
	m.Hier.L2 = rec
	gen, err := workload.NewGenerator(app, seed, workload.PhaseLen(app, accesses))
	if err != nil {
		log.Fatal(err)
	}
	baseRep, err := sim.RunSampledTrace(m, app.Name, trace.NewLimitSource(gen, accesses), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %d L2 accesses, miss rate %.1f%%, %d cross-domain evictions\n",
		baseRep.L2.TotalAccesses(), baseRep.L2.MissRate()*100, baseRep.L2.InterferenceEvictions)

	// Step 2: sizing search over power-of-two segment candidates.
	baseSeg := core.SegmentConfig{Name: "base", SizeBytes: 1 << 20, Ways: 16, BlockBytes: 64, Policy: cache.LRU}
	candidates := []uint64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	sizing, err := core.ChooseStaticSizes(rec.Stream, baseSeg, candidates, 0.02)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsizing search (tolerance 2 miss-rate points):\n")
	fmt.Printf("  user segment:   %d KB (miss %.1f%%)\n", sizing.UserSize>>10, sizing.UserPoint.MissRate*100)
	fmt.Printf("  kernel segment: %d KB (miss %.1f%%)\n", sizing.KernelSize>>10, sizing.KernelPoint.MissRate*100)
	fmt.Printf("  total %d KB vs 1024 KB baseline (%.0f%% smaller), combined miss %.1f%% vs %.1f%%\n",
		sizing.TotalSize()>>10, (1-float64(sizing.TotalSize())/float64(1<<20))*100,
		sizing.CombinedMissRate*100, sizing.BaselineMissRate*100)

	// Step 3: measure block lifetimes on the SRAM partition and let the
	// library suggest a retention class per segment.
	spCfg, err := sim.MachineByName("sp")
	if err != nil {
		log.Fatal(err)
	}
	sp, err := sim.Build(spCfg)
	if err != nil {
		log.Fatal(err)
	}
	gen2, err := workload.NewGenerator(app, seed, workload.PhaseLen(app, accesses))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.RunSampledTrace(sp, app.Name, trace.NewLimitSource(gen2, accesses), 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nretention matching:\n")
	for _, d := range []trace.Domain{trace.User, trace.Kernel} {
		lt := sp.Static.SegmentCache(d).Stats().Lifetimes[d]
		tech := sttram.DomainFor(lt, 0.05)
		fmt.Printf("  %-6s segment: mean block lifetime %.2g cycles -> %s\n", d, lt.Mean(), tech)
	}

	// Assemble and run the resulting multi-retention machine.
	spmr, err := sim.MachineByName("sp-mr")
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sim.Run(context.Background(), nil, spmr, app, seed, 0, accesses, sample.Spec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmulti-retention static partition on %s:\n", app.Name)
	fmt.Printf("  L2 energy %.3g J vs baseline %.3g J -> %.1f%% saving\n",
		rep.L2EnergyJ(), baseRep.L2EnergyJ(), (1-rep.L2EnergyJ()/baseRep.L2EnergyJ())*100)
	fmt.Printf("  IPC %.4f vs baseline %.4f -> %.1f%% loss\n",
		rep.IPC(), baseRep.IPC(), (1-rep.IPC()/baseRep.IPC())*100)
}
