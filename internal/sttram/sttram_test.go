package sttram

import (
	"math"
	"testing"
	"testing/quick"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
	"mobilecache/internal/trace"
)

func newArray(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{Name: "stt", SizeBytes: 4 * 1024, Ways: 4, BlockBytes: 64, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRefreshPolicyNames(t *testing.T) {
	for p := RefreshPolicy(0); p < numPolicies; p++ {
		got, err := ParseRefreshPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseRefreshPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseRefreshPolicy("never"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if RefreshPolicy(9).Valid() {
		t.Fatal("policy 9 claims valid")
	}
}

func TestRetentionStabilityRoundTrip(t *testing.T) {
	f := func(raw uint8) bool {
		delta := 20 + float64(raw%40) // 20..59, physical range
		sec := RetentionFromStability(delta)
		back := math.Log(sec / 1e-9) // t = t0 * exp(delta), t0 = 1ns
		return math.Abs(back-delta) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRetentionMonotoneInStability(t *testing.T) {
	prev := 0.0
	for d := 10.0; d <= 60; d += 5 {
		r := RetentionFromStability(d)
		if r <= prev {
			t.Fatalf("retention not increasing at delta=%g", d)
		}
		prev = r
	}
}

func TestInertController(t *testing.T) {
	c := newArray(t)
	ct, err := NewController(c, nil, 0, PeriodicAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ct.CanExpire() {
		t.Fatal("zero-retention controller can expire lines")
	}
	c.Access(0x40, true, trace.User, 1)
	ct.Tick(1 << 40)
	set, way, _ := c.Probe(0x40)
	if ct.Expired(set, way, 1<<40) {
		t.Fatal("inert controller reported expiry")
	}
	if ct.Stats().Scans != 0 {
		t.Fatal("inert controller scanned")
	}
}

func TestInvalidPolicyRejected(t *testing.T) {
	if _, err := NewController(newArray(t), nil, 100, RefreshPolicy(99), nil); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestExpiredDetection(t *testing.T) {
	c := newArray(t)
	ct, err := NewController(c, nil, 1000, PeriodicAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x40, false, trace.User, 100)
	set, way, _ := c.Probe(0x40)
	if ct.Expired(set, way, 500) {
		t.Fatal("fresh line reported expired")
	}
	if !ct.Expired(set, way, 1100) {
		t.Fatal("lapsed line not reported expired")
	}
	// Invalid way never expires.
	if ct.Expired(set, (way+1)%4, 1<<40) {
		t.Fatal("invalid line reported expired")
	}
}

func TestPeriodicAllPreventsExpiry(t *testing.T) {
	c := newArray(t)
	meter := energy.NewMeter(energy.DefaultParams(energy.STTShort), 4*1024)
	ct, err := NewController(c, meter, 1000, PeriodicAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x40, true, trace.User, 0)
	// Tick far into the future; scans every 500 cycles must keep the
	// line alive the whole way.
	for now := uint64(0); now <= 20000; now += 100 {
		ct.Tick(now)
		set, way, ok := c.Probe(0x40)
		if !ok {
			t.Fatalf("line lost at %d under PeriodicAll", now)
		}
		if ct.Expired(set, way, now) {
			t.Fatalf("line expired at %d under PeriodicAll", now)
		}
	}
	st := ct.Stats()
	if st.Refreshes == 0 || st.Scans == 0 {
		t.Fatalf("no refresh activity recorded: %+v", st)
	}
	if st.DirtyExpiries != 0 || st.CleanExpiries != 0 {
		t.Fatalf("expiries under PeriodicAll: %+v", st)
	}
	if meter.Breakdown().RefreshJ <= 0 {
		t.Fatal("refresh energy not charged")
	}
}

func TestDirtyOnlyRefreshesDirtyDropsClean(t *testing.T) {
	c := newArray(t)
	ct, err := NewController(c, nil, 1000, DirtyOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x40, true, trace.User, 0)  // dirty
	c.Access(0x80, false, trace.User, 0) // clean
	for now := uint64(0); now <= 5000; now += 100 {
		ct.Tick(now)
	}
	if _, _, ok := c.Probe(0x40); !ok {
		t.Fatal("dirty line lost under DirtyOnly")
	}
	if _, _, ok := c.Probe(0x80); ok {
		t.Fatal("clean line survived without refresh past retention")
	}
	st := ct.Stats()
	if st.Refreshes == 0 {
		t.Fatal("dirty line never refreshed")
	}
	if st.CleanExpiries == 0 {
		t.Fatal("clean expiry not recorded")
	}
	if st.DirtyExpiries != 0 {
		t.Fatalf("dirty expiries = %d, want 0 (no data loss)", st.DirtyExpiries)
	}
}

func TestEagerWritebackCleansAndExpires(t *testing.T) {
	c := newArray(t)
	var wb []uint64
	meter := energy.NewMeter(energy.DefaultParams(energy.STTShort), 4*1024)
	ct, err := NewController(c, meter, 1000, EagerWriteback, func(addr uint64) { wb = append(wb, addr) })
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x40, true, trace.User, 0) // dirty
	for now := uint64(0); now <= 5000; now += 100 {
		ct.Tick(now)
	}
	if len(wb) != 1 || wb[0] != 0x40 {
		t.Fatalf("eager writebacks = %#v, want [0x40]", wb)
	}
	// After writeback the line ages out as clean.
	if _, _, ok := c.Probe(0x40); ok {
		t.Fatal("line survived past retention under EagerWriteback")
	}
	st := ct.Stats()
	if st.EagerWritebacks != 1 {
		t.Fatalf("eager writebacks = %d, want 1", st.EagerWritebacks)
	}
	if st.DirtyExpiries != 0 {
		t.Fatalf("dirty expiries = %d, want 0", st.DirtyExpiries)
	}
	if st.Refreshes != 0 {
		t.Fatalf("refreshes = %d, want 0 under EagerWriteback", st.Refreshes)
	}
}

// Property: under any policy with scans ticked at least every half
// retention, a dirty line is never silently lost (DirtyExpiries == 0).
func TestNoSilentDirtyLossProperty(t *testing.T) {
	f := func(seed uint64, polRaw uint8) bool {
		pol := RefreshPolicy(polRaw % uint8(numPolicies))
		c, err := cache.New(cache.Config{Name: "p", SizeBytes: 2048, Ways: 2, BlockBytes: 64, Policy: cache.LRU})
		if err != nil {
			return false
		}
		ct, err := NewController(c, nil, 2000, pol, nil)
		if err != nil {
			return false
		}
		s := seed
		now := uint64(0)
		for i := 0; i < 400; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			now += s % 400 // steps < half retention
			ct.Tick(now)
			addr := (s >> 32) % 8192
			write := s%3 == 0
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
		return ct.Stats().DirtyExpiries == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHandleExpiredAccounting(t *testing.T) {
	c := newArray(t)
	ct, _ := NewController(c, nil, 1000, DirtyOnly, nil)
	c.Access(0x40, false, trace.User, 0)
	set, way, _ := c.Probe(0x40)
	if dirty := ct.HandleExpired(set, way, 2000); dirty {
		t.Fatal("clean line reported dirty")
	}
	if ct.Stats().CleanExpiries != 1 {
		t.Fatalf("clean expiries = %d, want 1", ct.Stats().CleanExpiries)
	}
	// Handling an already-invalid line is a no-op.
	if ct.HandleExpired(set, way, 2001) {
		t.Fatal("double handle reported dirty")
	}
	if ct.Stats().CleanExpiries != 1 {
		t.Fatal("double handle double-counted")
	}
}

func TestDomainForPicksShortForShortLived(t *testing.T) {
	// Lifetimes clustered at ~1k cycles: far below short retention
	// (26.5us = 53k cycles), so short class suffices.
	var shortLived cache.Log2Hist
	for i := 0; i < 1000; i++ {
		shortLived.Observe(1000)
	}
	if got := DomainFor(&shortLived, 0.05); got != energy.STTShort {
		t.Fatalf("short-lived blocks mapped to %v, want stt-short", got)
	}
	// Lifetimes at ~1e10 cycles (5 s): beyond medium retention.
	var longLived cache.Log2Hist
	for i := 0; i < 1000; i++ {
		longLived.Observe(1 << 34)
	}
	if got := DomainFor(&longLived, 0.05); got != energy.STTLong {
		t.Fatalf("long-lived blocks mapped to %v, want stt-long", got)
	}
}

func TestTickCatchesUpMultipleScans(t *testing.T) {
	c := newArray(t)
	ct, _ := NewController(c, nil, 1000, PeriodicAll, nil)
	ct.Tick(5000) // 10 scan periods at once
	if ct.Stats().Scans < 9 {
		t.Fatalf("scans = %d, want >= 9 after jumping 10 periods", ct.Stats().Scans)
	}
}
