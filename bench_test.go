// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md for the per-experiment index). Each
// BenchmarkE*/BenchmarkT* target runs one experiment end to end and
// reports its headline values as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation, and
//
//	go test -bench=BenchmarkE7 -benchmem
//
// regenerates a single figure. The micro-benchmarks at the bottom
// measure the simulator's own throughput.
package mobilecache

import (
	"fmt"
	"testing"

	"mobilecache/internal/cache"
	"mobilecache/internal/config"
	"mobilecache/internal/experiments"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

// benchOptions scales the experiments for benchmarking: all ten apps,
// moderate trace length per app so a full -bench=. sweep stays in the
// minutes range. cmd/mcbench runs the same experiments at full scale.
func benchOptions() experiments.Options {
	return experiments.Options{Accesses: 120_000, Seed: 1, Apps: workload.Profiles()}
}

// runExperiment executes one experiment per iteration and publishes its
// headline values as metrics.
func runExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		v, ok := res.Values[m]
		if !ok {
			b.Fatalf("experiment %s has no value %q", id, m)
		}
		b.ReportMetric(v, m)
	}
}

// BenchmarkE1KernelShare regenerates the motivation figure: the kernel
// share of L2 accesses per app (paper: >40% on average).
func BenchmarkE1KernelShare(b *testing.B) {
	runExperiment(b, "E1", "avg_l2_kernel_share")
}

// BenchmarkE2Interference regenerates the user/kernel interference
// comparison between the shared L2 and same-capacity isolation.
func BenchmarkE2Interference(b *testing.B) {
	runExperiment(b, "E2", "avg_interference_per_1k")
}

// BenchmarkE3SizingSweep regenerates the miss-rate-vs-segment-size
// curves and the static partition sizing decision.
func BenchmarkE3SizingSweep(b *testing.B) {
	runExperiment(b, "E3", "shrink_fraction", "baseline_missrate", "partition_missrate")
}

// BenchmarkE4Lifetime regenerates the per-segment block lifetime and
// write-interval distributions motivating multi-retention STT-RAM.
func BenchmarkE4Lifetime(b *testing.B) {
	runExperiment(b, "E4", "kernel_mean_lifetime", "user_mean_lifetime", "kernel_life_below_ms_ret")
}

// BenchmarkE5TechTable regenerates the technology parameter table.
func BenchmarkE5TechTable(b *testing.B) {
	runExperiment(b, "E5", "leakage_ratio_sram_over_stt")
}

// BenchmarkE6EnergyBreakdown regenerates the per-scheme L2 energy
// breakdown (read/write/leakage/refresh).
func BenchmarkE6EnergyBreakdown(b *testing.B) {
	runExperiment(b, "E6", "leakfrac_baseline-sram", "total_baseline-sram", "total_dp-sr")
}

// BenchmarkE7NormalizedEnergy regenerates the headline figure:
// normalized L2 energy for every app and scheme (paper: static ~75%
// saving, dynamic ~85%).
func BenchmarkE7NormalizedEnergy(b *testing.B) {
	runExperiment(b, "E7", "saving_sp", "saving_sp-mr", "saving_dp", "saving_dp-sr")
}

// BenchmarkE8Performance regenerates the performance companion figure
// (paper: ~2% loss static, ~3% dynamic).
func BenchmarkE8Performance(b *testing.B) {
	runExperiment(b, "E8", "perf_loss_sp-mr", "perf_loss_dp-sr")
}

// BenchmarkE9Adaptation regenerates the dynamic-partition adaptation
// trajectory over a multi-app session.
func BenchmarkE9Adaptation(b *testing.B) {
	runExperiment(b, "E9", "epochs", "distinct_allocations", "gated_epoch_fraction")
}

// BenchmarkE10RetentionSweep regenerates the kernel-segment retention
// sensitivity sweep.
func BenchmarkE10RetentionSweep(b *testing.B) {
	runExperiment(b, "E10", "best_retention_s")
}

// BenchmarkE11RefreshPolicy regenerates the refresh policy ablation.
func BenchmarkE11RefreshPolicy(b *testing.B) {
	runExperiment(b, "E11",
		"kernel_energy_periodic-all", "kernel_energy_dirty-only", "kernel_energy_eager-writeback")
}

// BenchmarkE12ControllerAblation regenerates the dynamic controller
// epoch/slack ablation.
func BenchmarkE12ControllerAblation(b *testing.B) {
	runExperiment(b, "E12", "best_norm_energy", "worst_norm_energy")
}

// BenchmarkE13PolicyAblation regenerates the replacement-policy
// sensitivity study.
func BenchmarkE13PolicyAblation(b *testing.B) {
	runExperiment(b, "E13", "baseline_missrate_lru", "baseline_missrate_random")
}

// BenchmarkE14SizeSweep regenerates the baseline L2 size sweep.
func BenchmarkE14SizeSweep(b *testing.B) {
	runExperiment(b, "E14", "energy_256k", "energy_2048k")
}

// BenchmarkE15IdleSensitivity regenerates the idle-time sensitivity of
// the energy savings.
func BenchmarkE15IdleSensitivity(b *testing.B) {
	runExperiment(b, "E15", "spmr_saving_active", "spmr_saving_idlest")
}

// BenchmarkE16DRAMModel regenerates the DRAM-abstraction robustness
// check (flat vs open-page row buffers).
func BenchmarkE16DRAMModel(b *testing.B) {
	runExperiment(b, "E16", "flat_saving_sp-mr", "openpage_saving_sp-mr")
}

// BenchmarkE17Prefetch regenerates the L1-prefetcher robustness check.
func BenchmarkE17Prefetch(b *testing.B) {
	runExperiment(b, "E17", "nopf_saving_sp-mr", "pf_saving_sp-mr", "base_ipc_gain_from_pf")
}

// BenchmarkE18Drowsy regenerates the drowsy-SRAM comparison.
func BenchmarkE18Drowsy(b *testing.B) {
	runExperiment(b, "E18", "norm_energy_baseline-drowsy", "norm_energy_sp-mr", "norm_energy_dp-sr")
}

// BenchmarkE19Validation regenerates the workload reuse fingerprints.
func BenchmarkE19Validation(b *testing.B) {
	runExperiment(b, "E19", "avg_user_footprint", "avg_kernel_footprint")
}

// BenchmarkE20Mechanisms regenerates the partitioning-mechanism
// comparison (segments vs page coloring vs way partitioning).
func BenchmarkE20Mechanisms(b *testing.B) {
	runExperiment(b, "E20", "missrate_shared", "missrate_segments", "missrate_setpart")
}

// BenchmarkE21RetentionFaults regenerates the retention-fault
// sensitivity sweep of the STT-RAM designs.
func BenchmarkE21RetentionFaults(b *testing.B) {
	runExperiment(b, "E21", "energy_overhead_pct_sp-mr", "energy_overhead_pct_dp-sr", "fault_expiries_dp-sr_ber1e-03")
}

// BenchmarkT1SystemConfig regenerates the platform configuration table.
func BenchmarkT1SystemConfig(b *testing.B) {
	runExperiment(b, "T1", "schemes")
}

// BenchmarkT2Summary regenerates the summary table with the paper's
// headline comparisons.
func BenchmarkT2Summary(b *testing.B) {
	runExperiment(b, "T2", "saving_sp-mr", "perf_loss_sp-mr", "saving_dp-sr", "perf_loss_dp-sr")
}

// BenchmarkT3SeedRobustness regenerates the multi-seed stability check
// of the headline comparison.
func BenchmarkT3SeedRobustness(b *testing.B) {
	runExperiment(b, "T3", "saving_mean_sp-mr", "saving_stddev_sp-mr", "saving_mean_dp-sr")
}

// --- simulator micro-benchmarks ---

// BenchmarkCacheAccess measures raw set-associative cache throughput.
func BenchmarkCacheAccess(b *testing.B) {
	c, err := cache.New(cache.Config{Name: "bench", SizeBytes: 1 << 20, Ways: 16, BlockBytes: 64, Policy: cache.LRU})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) * 2654435761 % (4 << 20)
		c.Access(addr, i%4 == 0, trace.User, uint64(i))
	}
}

// BenchmarkShadowTags measures the utility monitor's overhead.
func BenchmarkShadowTags(b *testing.B) {
	st := cache.NewShadowTagsSampled(1024, 16, 64, 3, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Access(uint64(i) * 2654435761 % (4 << 20))
	}
}

// BenchmarkTraceGeneration measures synthetic workload generation.
func BenchmarkTraceGeneration(b *testing.B) {
	prof := workload.Profiles()[0]
	gen, err := workload.NewGenerator(prof, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

// BenchmarkFullSimulation measures end-to-end simulated accesses per
// second on the baseline machine.
func BenchmarkFullSimulation(b *testing.B) {
	for _, scheme := range []string{"baseline-sram", "sp-mr", "dp-sr"} {
		b.Run(scheme, func(b *testing.B) {
			cfg, err := sim.MachineByName(scheme)
			if err != nil {
				b.Fatal(err)
			}
			m, err := sim.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			gen, err := workload.NewGenerator(workload.Profiles()[0], 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			sim.RunTrace(m, "bench", trace.NewLimitSource(gen, b.N), 0)
		})
	}
}

// BenchmarkMachineBuild measures machine construction cost.
func BenchmarkMachineBuild(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Example of reading a headline metric programmatically.
func ExampleRunExperiment() {
	res, err := RunExperiment("E5", ExperimentOptions{
		Accesses: 1000, Seed: 1, Apps: Profiles()[:1],
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.ID, "tables:", len(res.Tables) > 0)
	// Output: E5 tables: true
}
