package experiments

import (
	"strings"
	"testing"

	"mobilecache/internal/workload"
)

// quick returns small-but-meaningful options for tests.
func quick() Options {
	return Options{Accesses: 60_000, Seed: 1, Apps: workload.Profiles()[:3]}
}

// quickOptions is the reduced configuration of the CI gates: golden
// audit, sampling validation and equivalence.
func quickOptions() Options {
	return Options{Accesses: 80_000, Seed: 1, Apps: workload.Profiles()[:3]}
}

func runOne(t *testing.T, id string, opts Options) Result {
	t.Helper()
	res, err := Run(id, opts)
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	if res.ID != id || res.Title == "" || res.Paper == "" {
		t.Fatalf("%s: metadata incomplete: %+v", id, res)
	}
	if len(res.Tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	for _, tb := range res.Tables {
		var csv strings.Builder
		if err := tb.WriteCSV(&csv); err != nil || strings.Count(csv.String(), "\n") < 2 {
			t.Fatalf("%s: empty table %q", id, tb.Title)
		}
		if !strings.Contains(tb.String(), tb.Columns[0]) {
			t.Fatalf("%s: table render broken", id)
		}
	}
	return res
}

func TestIDsCompleteAndOrdered(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "T1", "T2", "T3"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids[%d] = %s, want %s (full: %v)", i, ids[i], want[i], ids)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("E99", quick()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	bad := quick()
	bad.Accesses = 0
	if _, err := Run("E5", bad); err == nil {
		t.Fatal("zero accesses accepted")
	}
	bad = quick()
	bad.Apps = nil
	if _, err := Run("E5", bad); err == nil {
		t.Fatal("no apps accepted")
	}
}

func TestE1KernelShareAbove40(t *testing.T) {
	// Use all ten apps: the >40% claim is an average over the suite.
	opts := quick()
	opts.Apps = workload.Profiles()
	res := runOne(t, "E1", opts)
	if got := res.Values["avg_l2_kernel_share"]; got < 0.40 {
		t.Fatalf("average L2 kernel share = %.3f, want >= 0.40 (paper's motivation)", got)
	}
}

func TestE2InterferenceExistsAndIsolationRemovesIt(t *testing.T) {
	// Interference needs enough accesses to pressure the shared cache;
	// run this one at a larger scale than the other quick tests.
	opts := quick()
	opts.Accesses = 200_000
	res := runOne(t, "E2", opts)
	if res.Values["avg_interference_per_1k"] <= 0 {
		t.Fatal("no interference measured in the shared baseline")
	}
}

func TestE3PartitionShrinks(t *testing.T) {
	res := runOne(t, "E3", quick())
	if res.Values["shrink_fraction"] <= 0 {
		t.Fatalf("no shrink achieved: %+v", res.Values)
	}
	// Miss-rate promise: within the 1-point tolerance.
	if res.Values["partition_missrate"] > res.Values["baseline_missrate"]+0.02+1e-9 {
		t.Fatalf("partition miss rate %.4f exceeds budget over baseline %.4f",
			res.Values["partition_missrate"], res.Values["baseline_missrate"])
	}
}

func TestE4KernelBlocksDieYoung(t *testing.T) {
	// Lifetime statistics need eviction counts; run at a larger scale
	// than the other quick tests.
	opts := quick()
	opts.Accesses = 200_000
	res := runOne(t, "E4", opts)
	// The premise of the multi-retention assignment: kernel blocks
	// live distinctly shorter lives than user blocks, and both
	// domains' lifetimes fit a millisecond-class retention window
	// (which is why the DP-SR design can relax retention that far).
	if kl, ul := res.Values["kernel_mean_lifetime"], res.Values["user_mean_lifetime"]; kl >= ul {
		t.Fatalf("kernel mean lifetime %.0f not below user mean lifetime %.0f", kl, ul)
	}
	if got := res.Values["kernel_life_below_ms_ret"]; got < 0.9 {
		t.Fatalf("only %.2f of kernel lifetimes fit the ms retention window", got)
	}
	if got := res.Values["user_life_below_med_ret"]; got < 0.95 {
		t.Fatalf("only %.2f of user lifetimes fit medium retention", got)
	}
	// Kernel lifetimes must fit the short window better than user
	// lifetimes do — the reason the kernel segment can use the
	// cheapest-write class.
	if res.Values["kernel_life_below_short_ret"] < res.Values["user_life_below_ms_ret"]-1 {
		t.Fatal("inconsistent lifetime CDFs")
	}
}

func TestE5TechTable(t *testing.T) {
	res := runOne(t, "E5", quick())
	if res.Values["leakage_ratio_sram_over_stt"] < 3 {
		t.Fatal("SRAM/STT leakage ratio implausibly low")
	}
}

func TestE6LeakageDominatesBaseline(t *testing.T) {
	res := runOne(t, "E6", quick())
	if got := res.Values["leakfrac_baseline-sram"]; got < 0.5 {
		t.Fatalf("baseline leakage fraction = %.2f, want > 0.5 (mobile idle-heavy premise)", got)
	}
	// Every proposed scheme must beat the SRAM baseline.
	base := res.Values["total_baseline-sram"]
	for _, s := range proposedSchemes {
		if res.Values["total_"+s] >= base {
			t.Fatalf("scheme %s total %.3g not below baseline %.3g", s, res.Values["total_"+s], base)
		}
	}
}

func TestE7HeadlineEnergyShape(t *testing.T) {
	res := runOne(t, "E7", quick())
	spmr := res.Values["saving_sp-mr"]
	dpsr := res.Values["saving_dp-sr"]
	sp := res.Values["saving_sp"]
	// Shape: sp saves something; sp-mr saves a lot (paper ~75%);
	// dp-sr saves the most (paper ~85%).
	if sp <= 0.05 {
		t.Fatalf("sp saving = %.3f, want > 0.05", sp)
	}
	if spmr < 0.60 {
		t.Fatalf("sp-mr saving = %.3f, want >= 0.60 (paper: ~0.75)", spmr)
	}
	if dpsr < spmr {
		t.Fatalf("dp-sr saving %.3f below sp-mr %.3f — dynamic must win", dpsr, spmr)
	}
	if dpsr < 0.70 {
		t.Fatalf("dp-sr saving = %.3f, want >= 0.70 (paper: ~0.85)", dpsr)
	}
}

func TestE8PerformanceLossSmall(t *testing.T) {
	res := runOne(t, "E8", quick())
	for _, s := range proposedSchemes {
		loss := res.Values["perf_loss_"+s]
		if loss > 0.10 {
			t.Fatalf("%s performance loss %.3f exceeds 10%% (paper: 2-3%%)", s, loss)
		}
		if loss < -0.02 {
			t.Fatalf("%s gained %.3f performance — suspicious", s, -loss)
		}
	}
}

func TestE9ControllerAdapts(t *testing.T) {
	res := runOne(t, "E9", quick())
	if res.Values["epochs"] < 3 {
		t.Fatalf("only %.0f epochs recorded", res.Values["epochs"])
	}
	if res.Values["distinct_allocations"] < 2 {
		t.Fatal("controller never changed its allocation")
	}
	if res.Values["gated_epoch_fraction"] <= 0 {
		t.Fatal("controller never gated any way")
	}
}

func TestE10RetentionSweetSpot(t *testing.T) {
	res := runOne(t, "E10", quick())
	best := res.Values["best_retention_s"]
	if best <= 0 {
		t.Fatal("no best retention found")
	}
	// The extremes must not win: shortest retention pays refresh,
	// longest pays write energy.
	if best >= 3.24 {
		t.Fatalf("best retention %.3g at the long extreme — write-cost model broken", best)
	}
}

func TestE11NoDirtyLossAnyPolicy(t *testing.T) {
	res := runOne(t, "E11", quick())
	for _, pol := range []string{"periodic-all", "dirty-only", "eager-writeback"} {
		if res.Values["dirty_expiries_"+pol] != 0 {
			t.Fatalf("policy %s lost dirty data", pol)
		}
	}
	// Periodic refresh must cost the most refresh energy; its miss
	// rate must be the lowest (no expiry misses).
	if res.Values["kernel_missrate_periodic-all"] > res.Values["kernel_missrate_eager-writeback"]+1e-9 {
		t.Fatal("periodic refresh should not miss more than eager writeback")
	}
}

func TestE12AblationMoves(t *testing.T) {
	res := runOne(t, "E12", quick())
	if res.Values["best_norm_energy"] >= res.Values["worst_norm_energy"] {
		t.Fatal("ablation shows no sensitivity to controller knobs")
	}
	if res.Values["best_norm_energy"] >= 1 {
		t.Fatal("dynamic design never beat the baseline in the ablation")
	}
}

func TestE13PoliciesComparable(t *testing.T) {
	res := runOne(t, "E13", quick())
	// LRU must not be beaten by Random on these reuse-heavy streams,
	// and the tree-PLRU approximation must stay near exact LRU.
	lru := res.Values["baseline_missrate_lru"]
	random := res.Values["baseline_missrate_random"]
	plru := res.Values["baseline_missrate_plru"]
	if lru > random+0.01 {
		t.Fatalf("LRU miss %.3f worse than random %.3f", lru, random)
	}
	if plru > lru+0.05 {
		t.Fatalf("PLRU miss %.3f too far from LRU %.3f", plru, lru)
	}
}

func TestE14EnergyGrowsMissSaturates(t *testing.T) {
	res := runOne(t, "E14", quick())
	// Energy must grow with installed capacity...
	if res.Values["energy_2048k"] <= res.Values["energy_256k"] {
		t.Fatal("bigger cache did not cost more energy")
	}
	// ...while the miss rate is monotone non-increasing.
	prev := 1.0
	for _, k := range []string{"missrate_256k", "missrate_512k", "missrate_1024k", "missrate_2048k"} {
		if res.Values[k] > prev+0.01 {
			t.Fatalf("%s = %.3f grew with size", k, res.Values[k])
		}
		prev = res.Values[k]
	}
}

func TestE15SavingsGrowWithIdle(t *testing.T) {
	res := runOne(t, "E15", quick())
	if res.Values["spmr_saving_idlest"] < res.Values["spmr_saving_active"] {
		t.Fatalf("idle time reduced sp-mr saving: %.3f -> %.3f",
			res.Values["spmr_saving_active"], res.Values["spmr_saving_idlest"])
	}
	if res.Values["spmr_saving_idlest"] < 0.6 {
		t.Fatalf("idle saving = %.3f, want leakage-dominated regime", res.Values["spmr_saving_idlest"])
	}
}

func TestE16DRAMModelRobust(t *testing.T) {
	res := runOne(t, "E16", quick())
	for _, s := range []string{"sp-mr", "dp-sr"} {
		flat := res.Values["flat_saving_"+s]
		open := res.Values["openpage_saving_"+s]
		if diff := flat - open; diff > 0.08 || diff < -0.08 {
			t.Fatalf("%s saving moved %.3f between DRAM models (flat %.3f, open %.3f)", s, diff, flat, open)
		}
	}
}

func TestE17PrefetchRobust(t *testing.T) {
	res := runOne(t, "E17", quick())
	if res.Values["base_ipc_gain_from_pf"] <= 0 {
		t.Fatal("prefetcher did not help the baseline — model inert")
	}
	for _, s := range []string{"sp-mr", "dp-sr"} {
		n, p := res.Values["nopf_saving_"+s], res.Values["pf_saving_"+s]
		if diff := n - p; diff > 0.10 || diff < -0.10 {
			t.Fatalf("%s saving moved %.3f with prefetching (no-pf %.3f, pf %.3f)", s, diff, n, p)
		}
	}
}

func TestE18DrowsyBetweenBaselineAndSTT(t *testing.T) {
	res := runOne(t, "E18", quick())
	drowsy := res.Values["norm_energy_baseline-drowsy"]
	spmr := res.Values["norm_energy_sp-mr"]
	if drowsy >= 1 {
		t.Fatalf("drowsy norm energy %.3f did not beat the baseline", drowsy)
	}
	// The peripheral floor keeps drowsy above the technology change.
	if drowsy <= spmr {
		t.Fatalf("drowsy %.3f beat sp-mr %.3f — peripheral floor missing", drowsy, spmr)
	}
	// Drowsy is state-preserving: essentially no performance cost.
	if loss := 1 - res.Values["norm_ipc_baseline-drowsy"]; loss > 0.02 {
		t.Fatalf("drowsy performance loss %.3f too high for a state-preserving technique", loss)
	}
}

func TestE19FootprintsMatchClaims(t *testing.T) {
	res := runOne(t, "E19", quick())
	// Kernel footprints must stay small (they must fit the 256KB
	// segment) and user footprints must be the larger ones on average.
	if res.Values["avg_kernel_footprint"] > 300*1024 {
		t.Fatalf("avg kernel footprint %.0f exceeds the kernel segment's ballpark", res.Values["avg_kernel_footprint"])
	}
	if res.Values["avg_user_footprint"] <= 0 {
		t.Fatal("no user footprint measured")
	}
}

func TestE20MechanismsIsolate(t *testing.T) {
	opts := quick()
	opts.Accesses = 150_000
	res := runOne(t, "E20", opts)
	// All isolation mechanisms must eliminate interference.
	if res.Values["interference_setpart"] != 0 {
		t.Fatalf("set partition interfered %v times", res.Values["interference_setpart"])
	}
	// Only the segment design saves energy (it shrinks); the in-place
	// mechanisms keep the full array powered.
	if res.Values["energy_segments"] >= res.Values["energy_setpart"] {
		t.Fatal("segment shrink did not save energy vs in-place partitioning")
	}
	// All mechanisms stay within a few points of the shared miss rate.
	shared := res.Values["missrate_shared"]
	for _, k := range []string{"missrate_segments", "missrate_setpart", "missrate_waypart"} {
		if diff := res.Values[k] - shared; diff > 0.05 {
			t.Fatalf("%s = %.3f, way above shared %.3f", k, res.Values[k], shared)
		}
	}
}

func TestE21FaultsCostEnergyDeterministically(t *testing.T) {
	res := runOne(t, "E21", quick())
	for _, name := range []string{"sp-mr", "dp-sr"} {
		// Ideal cells must record zero faults; the worst BER must not.
		if res.Values["fault_expiries_"+name+"_ber0e+00"] != 0 {
			t.Fatalf("%s: faults at BER 0", name)
		}
		if res.Values["fault_expiries_"+name+"_ber1e-03"] == 0 {
			t.Fatalf("%s: no faults at BER 1e-3", name)
		}
		if res.Values["energy_overhead_pct_"+name] < 0 {
			t.Fatalf("%s: faults reduced energy: %+.2f%%", name, res.Values["energy_overhead_pct_"+name])
		}
	}
	// Same options, same fault seed, same numbers.
	again := runOne(t, "E21", quick())
	for k, v := range res.Values {
		if again.Values[k] != v {
			t.Fatalf("E21 not deterministic: %s %v -> %v", k, v, again.Values[k])
		}
	}
}

func TestT1T2Render(t *testing.T) {
	runOne(t, "T1", quick())
	res := runOne(t, "T2", quick())
	if res.Values["saving_sp-mr"] <= res.Values["saving_sp"] {
		t.Fatal("T2: multi-retention must beat plain SRAM partition")
	}
}

func TestT3SeedRobust(t *testing.T) {
	opts := quick()
	opts.Apps = opts.Apps[:2] // T3 runs three seeds; keep it cheap
	res := runOne(t, "T3", opts)
	// The savings must be stable across seeds: stddev well below the
	// mean effect size.
	for _, s := range []string{"sp-mr", "dp-sr"} {
		mean := res.Values["saving_mean_"+s]
		sd := res.Values["saving_stddev_"+s]
		if mean <= 0.4 {
			t.Fatalf("%s mean saving %.3f implausibly low", s, mean)
		}
		if sd > mean/4 {
			t.Fatalf("%s saving unstable across seeds: mean %.3f stddev %.3f", s, mean, sd)
		}
	}
}

func TestFiguresAttached(t *testing.T) {
	res := runOne(t, "E7", quick())
	svg, ok := res.Figures["e7_normalized_energy.svg"]
	if !ok || !strings.HasPrefix(svg, "<svg") {
		t.Fatal("E7 did not attach its figure")
	}
	res = runOne(t, "E9", quick())
	svg, ok = res.Figures["e9_adaptation.svg"]
	if !ok || !strings.Contains(svg, "user ways") {
		t.Fatal("E9 did not attach its trajectory figure")
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a := runOne(t, "E7", quick())
	b := runOne(t, "E7", quick())
	for k, v := range a.Values {
		if b.Values[k] != v {
			t.Fatalf("value %s differs across identical runs: %g vs %g", k, v, b.Values[k])
		}
	}
}
