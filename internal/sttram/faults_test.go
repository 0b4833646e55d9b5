package sttram

import (
	"testing"

	"mobilecache/internal/cache"
	"mobilecache/internal/trace"
)

// driveFaulted fills many lines, ticks past the retention window and
// returns the accumulated stats.
func driveFaulted(t *testing.T, ber float64, seed uint64, pol RefreshPolicy) Stats {
	t.Helper()
	c, err := cache.New(cache.Config{Name: "f", SizeBytes: 64 * 1024, Ways: 4, BlockBytes: 64, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewController(c, nil, 10_000, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct.SetRetentionFaults(ber, seed)
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		now += 100
		ct.Tick(now)
		addr := uint64(i%1024) * 64
		write := i%2 == 0
		set, way, hit := c.Probe(addr)
		if hit && ct.Expired(set, way, now) {
			ct.HandleExpired(set, way, now)
			hit = false
		}
		c.CountAccess(trace.User, hit)
		if hit {
			c.Touch(set, way, write, trace.User, now)
		} else {
			c.Fill(addr, write, trace.User, now)
		}
	}
	return *ct.Stats()
}

func TestZeroBERChangesNothing(t *testing.T) {
	clean := driveFaulted(t, 0, 1, PeriodicAll)
	faultedOff := driveFaulted(t, 0, 99, PeriodicAll)
	if clean != faultedOff {
		t.Fatalf("BER=0 behaviour depends on fault seed:\n%+v\n%+v", clean, faultedOff)
	}
	if clean.FaultExpiries != 0 {
		t.Fatalf("fault expiries without injection: %d", clean.FaultExpiries)
	}
}

func TestFaultsStrikeAndAreCounted(t *testing.T) {
	st := driveFaulted(t, 0.2, 7, PeriodicAll)
	if st.FaultExpiries == 0 {
		t.Fatalf("no fault expiries at BER=0.2: %+v", st)
	}
	// Faults are double-booked as clean or dirty expiries too.
	if st.CleanExpiries+st.DirtyExpiries < st.FaultExpiries {
		t.Fatalf("fault expiries not reflected in clean/dirty buckets: %+v", st)
	}
	// PeriodicAll never loses data on ideal cells; under faults, dirty
	// losses become possible and must be visible, not silent.
	if st.DirtyExpiries == 0 {
		t.Fatalf("expected dirty data loss under heavy faults: %+v", st)
	}
}

func TestFaultRateMonotone(t *testing.T) {
	low := driveFaulted(t, 1e-3, 7, DirtyOnly)
	high := driveFaulted(t, 0.3, 7, DirtyOnly)
	if low.FaultExpiries >= high.FaultExpiries {
		t.Fatalf("fault expiries not increasing in BER: %d @1e-3 vs %d @0.3",
			low.FaultExpiries, high.FaultExpiries)
	}
}

func TestFaultsDeterministicPerSeed(t *testing.T) {
	a := driveFaulted(t, 0.05, 42, DirtyOnly)
	b := driveFaulted(t, 0.05, 42, DirtyOnly)
	if a != b {
		t.Fatalf("same fault seed diverged:\n%+v\n%+v", a, b)
	}
	c := driveFaulted(t, 0.05, 43, DirtyOnly)
	if a == c {
		t.Fatal("different fault seeds produced identical stats (draws not seeded?)")
	}
}

func TestFaultExpiryIsEarly(t *testing.T) {
	// With BER=1 every fill faults, so every line must expire before
	// its nominal retention.
	c, err := cache.New(cache.Config{Name: "e", SizeBytes: 16 * 1024, Ways: 4, BlockBytes: 64, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewController(c, nil, 100_000, DirtyOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct.SetRetentionFaults(1, 3)
	for i := uint64(0); i < 64; i++ {
		c.Access(i*64, false, trace.User, 0)
	}
	expired := 0
	c.VisitValid(func(set, way int, _ *cache.BlockMeta) {
		if ct.Expired(set, way, 99_999) { // one cycle before nominal
			expired++
		}
	})
	if expired != 64 {
		t.Fatalf("only %d/64 lines expired early at BER=1", expired)
	}
}

func TestSetRetentionFaultsClamps(t *testing.T) {
	c, _ := cache.New(cache.Config{Name: "c", SizeBytes: 2048, Ways: 2, BlockBytes: 64, Policy: cache.LRU})
	ct, _ := NewController(c, nil, 1000, DirtyOnly, nil)
	ct.SetRetentionFaults(-0.5, 1)
	if ct.faultBER != 0 {
		t.Fatalf("negative BER not clamped: %g", ct.faultBER)
	}
	ct.SetRetentionFaults(7, 1)
	if ct.faultBER != 1 {
		t.Fatalf("BER > 1 not clamped: %g", ct.faultBER)
	}
}
