package workload

import (
	"math"
	"testing"

	"mobilecache/internal/trace"
)

func testProfile() Profile {
	return Profile{
		Name:           "test",
		KernelShare:    0.4,
		UserWorkingSet: 256 * KB, KernelWorkingSet: 128 * KB,
		UserZipf: 1.0, KernelZipf: 0.6,
		UserWriteRatio: 0.25, KernelWriteRatio: 0.5,
		UserStreamFrac: 0.1, KernelStreamFrac: 0.2,
		IfetchFrac: 0.25, UserCodeSet: 64 * KB, KernelCodeSet: 32 * KB,
		UserBurstMean: 100, GapMean: 2.0, Phases: 2,
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := Generate(testProfile(), 99, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testProfile(), 99, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed traces diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a, _ := Generate(testProfile(), 1, 2000)
	b, _ := Generate(testProfile(), 2, 2000)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("different seeds produced %d/%d identical addresses", same, len(a))
	}
}

func TestGeneratorKernelShare(t *testing.T) {
	recs, err := Generate(testProfile(), 5, 200000)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(trace.NewSliceSource(recs))
	if math.Abs(s.KernelShare()-0.4) > 0.03 {
		t.Fatalf("kernel share = %g, want ~0.40", s.KernelShare())
	}
}

// domainOf classifies a generated address back into its domain: kernel
// addresses live in the top half of the address space.
func domainOf(addr uint64) trace.Domain {
	if addr >= 0xffff_0000_0000_0000 {
		return trace.Kernel
	}
	return trace.User
}

func TestGeneratorDomainAddressesConsistent(t *testing.T) {
	recs, err := Generate(testProfile(), 7, 50000)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range recs {
		if domainOf(a.Addr) != a.Domain {
			t.Fatalf("address %#x tagged %v but lives in %v space", a.Addr, a.Domain, domainOf(a.Addr))
		}
		if domainOf(a.PC) != a.Domain {
			t.Fatalf("pc %#x tagged %v but lives in %v space", a.PC, a.Domain, domainOf(a.PC))
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
	}
}

func TestGeneratorWriteRatios(t *testing.T) {
	recs, err := Generate(testProfile(), 11, 300000)
	if err != nil {
		t.Fatal(err)
	}
	var stores, data [trace.NumDomains]float64
	for _, a := range recs {
		if a.Op == trace.Ifetch {
			continue
		}
		data[a.Domain]++
		if a.Op == trace.Store {
			stores[a.Domain]++
		}
	}
	userRatio := stores[trace.User] / data[trace.User]
	kernelRatio := stores[trace.Kernel] / data[trace.Kernel]
	if math.Abs(userRatio-0.25) > 0.05 {
		t.Fatalf("user write ratio = %g, want ~0.25", userRatio)
	}
	if math.Abs(kernelRatio-0.5) > 0.05 {
		t.Fatalf("kernel write ratio = %g, want ~0.50", kernelRatio)
	}
	if kernelRatio <= userRatio {
		t.Fatalf("kernel writes (%g) should exceed user writes (%g)", kernelRatio, userRatio)
	}
}

func TestGeneratorIfetchFraction(t *testing.T) {
	recs, err := Generate(testProfile(), 13, 200000)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(trace.NewSliceSource(recs))
	frac := float64(s.ByOp[trace.Ifetch]) / float64(s.Records)
	if math.Abs(frac-0.25) > 0.03 {
		t.Fatalf("ifetch fraction = %g, want ~0.25", frac)
	}
}

func TestGeneratorPhasesShiftUserSet(t *testing.T) {
	prof := testProfile()
	prof.Phases = 2
	recs, err := Generate(prof, 17, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Collect user data addresses from first and second half.
	half := len(recs) / 2
	seen1, seen2 := map[uint64]bool{}, map[uint64]bool{}
	for i, a := range recs {
		if a.Domain != trace.User || a.Op == trace.Ifetch {
			continue
		}
		blk := a.Addr / BlockBytes
		if i < half {
			seen1[blk] = true
		} else {
			seen2[blk] = true
		}
	}
	overlap := 0
	for b := range seen2 {
		if seen1[b] {
			overlap++
		}
	}
	// Phase 2 should use a mostly fresh footprint.
	if len(seen2) == 0 || float64(overlap)/float64(len(seen2)) > 0.5 {
		t.Fatalf("phase overlap %d/%d too high; working set did not shift", overlap, len(seen2))
	}
}

func TestGeneratorPhaseScaling(t *testing.T) {
	// Phases alternate heavy and light user demand: the distinct-block
	// footprint of an odd (scaled-down) phase must be well below the
	// even (full-size) phase's.
	prof := testProfile()
	prof.Phases = 2
	prof.UserStreamFrac = 0 // keep the footprint purely hot-set
	recs, err := Generate(prof, 23, 120000)
	if err != nil {
		t.Fatal(err)
	}
	half := len(recs) / 2
	footprint := func(rs []trace.Access) int {
		seen := map[uint64]bool{}
		for _, a := range rs {
			if a.Domain == trace.User && a.Op != trace.Ifetch {
				seen[a.Addr/BlockBytes] = true
			}
		}
		return len(seen)
	}
	f1, f2 := footprint(recs[:half]), footprint(recs[half:])
	// Phase 1 scale is 1.0, phase 2 scale is 0.45.
	if float64(f2) > float64(f1)*0.7 {
		t.Fatalf("phase 2 footprint %d not clearly below phase 1 %d", f2, f1)
	}
	if f2 == 0 {
		t.Fatal("phase 2 generated no user data accesses")
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := testProfile()
	bad.KernelShare = 1.5
	if _, err := NewGenerator(bad, 1, 0); err == nil {
		t.Fatal("generator accepted kernel share > 1")
	}
	bad = testProfile()
	bad.Name = ""
	if _, err := NewGenerator(bad, 1, 0); err == nil {
		t.Fatal("generator accepted empty name")
	}
	bad = testProfile()
	bad.UserBurstMean = 0
	if _, err := NewGenerator(bad, 1, 0); err == nil {
		t.Fatal("generator accepted zero burst mean")
	}
	bad = testProfile()
	bad.UserWorkingSet = 1
	if _, err := NewGenerator(bad, 1, 0); err == nil {
		t.Fatal("generator accepted sub-block working set")
	}
}

func TestAllProfilesValidAndDistinct(t *testing.T) {
	ps := Profiles()
	if len(ps) < 10 {
		t.Fatalf("want at least 10 app profiles, got %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate profile name %q", p.Name)
		}
		names[p.Name] = true
		if p.KernelWriteRatio <= p.UserWriteRatio {
			t.Errorf("profile %s: kernel writes should be heavier than user writes", p.Name)
		}
	}
}

func TestProfilesAverageKernelShareAbove40(t *testing.T) {
	// The paper's motivating observation: interactive apps average
	// >40% kernel accesses. Check the profile parameters deliver at
	// least ~0.4 on average at generation level.
	sum := 0.0
	for _, p := range Profiles() {
		sum += p.KernelShare
	}
	avg := sum / float64(len(Profiles()))
	if avg < 0.40 {
		t.Fatalf("average configured kernel share = %g, want >= 0.40", avg)
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("browser")
	if err != nil || p.Name != "browser" {
		t.Fatalf("ProfileByName(browser) = %v, %v", p.Name, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if len(ProfileNames()) != len(Profiles()) {
		t.Fatal("ProfileNames length mismatch")
	}
}

func TestPhasedSource(t *testing.T) {
	a := trace.NewSliceSource([]trace.Access{{Addr: 1, Op: trace.Load, Domain: trace.User}, {Addr: 2, Op: trace.Load, Domain: trace.User}})
	b := trace.NewSliceSource([]trace.Access{{Addr: 3, Op: trace.Load, Domain: trace.Kernel}})
	ps := NewPhasedSource(2, a, b)
	got := trace.Collect(ps, 0)
	if len(got) != 3 {
		t.Fatalf("phased source yielded %d records, want 3", len(got))
	}
	if got[0].Addr != 1 || got[1].Addr != 2 || got[2].Addr != 3 {
		t.Fatalf("phased order wrong: %+v", got)
	}
}

func TestPhasedSourceQuota(t *testing.T) {
	g1, err := NewGenerator(testProfile(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(testProfile(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPhasedSource(100, g1, g2)
	got := trace.Collect(ps, 0)
	if len(got) != 200 {
		t.Fatalf("phased infinite sources yielded %d, want 200", len(got))
	}
}

func TestGenerateZeroLength(t *testing.T) {
	recs, err := Generate(testProfile(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("zero-length generate returned %d records", len(recs))
	}
}
