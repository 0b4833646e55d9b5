package sim

import (
	"context"
	"reflect"
	"testing"

	"mobilecache/internal/config"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
)

// TestRunFromSegmentComposition pins the core refactor contract: for
// every standard machine and both trace tiers (hot slice cursor,
// packed cursor), a replay split into arbitrary consecutive RunFrom
// calls on one RunState (one Finish at the end) is bit-identical —
// every counter, every float — to one uninterrupted Run.
func TestRunFromSegmentComposition(t *testing.T) {
	store := tracestore.New(0)
	prof := smallProfile()
	const total = 40_000
	hot, err := store.GetTrace(prof, 11, total)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Records == nil {
		t.Fatal("unbudgeted store did not keep the hot tier")
	}
	tiers := []struct {
		name string
		tr   tracestore.Trace
	}{{"hot", hot}, {"packed", tracestore.Trace{Packed: hot.Packed}}}
	chunks := []uint64{1, 7, 997, 8192, 0} // 0 = run to exhaustion
	for _, tier := range tiers {
		for _, cfg := range StandardMachines() {
			checkComposition(t, tier.name+"/"+cfg.Name, cfg, prof.Name, tier.tr, chunks)
		}
	}
}

// checkComposition replays tr once uninterrupted and once as RunFrom
// chunks, and requires identical outcomes; label names the case in
// failures.
func checkComposition(t *testing.T, label string, cfg config.Machine, name string, tr tracestore.Trace, chunks []uint64) {
	t.Helper()
	m1, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep1 := RunTrace(m1, name, tr.Cursor(), 0)

	m2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cur := tr.Cursor()
	rs := m2.CPU.NewRunState()
	for _, c := range chunks {
		m2.CPU.RunFrom(context.Background(), rs, cur, c)
	}
	m2.CPU.Finish()

	if !reflect.DeepEqual(rep1.CPU, rs.Result()) {
		t.Fatalf("%s: composed CPU result diverges:\n serial   %+v\n composed %+v", label, rep1.CPU, rs.Result())
	}
	if !reflect.DeepEqual(rep1.L2, m2.L2.Stats()) {
		t.Fatalf("%s: composed L2 stats diverge", label)
	}
	if !reflect.DeepEqual(rep1.Energy, m2.Hier.Energy()) {
		t.Fatalf("%s: composed energy diverges:\n serial   %+v\n composed %+v", label, rep1.Energy, m2.Hier.Energy())
	}
	if rep1.DRAMReads != m2.DRAM.Reads() || rep1.DRAMWrites != m2.DRAM.Writes() {
		t.Fatalf("%s: composed DRAM traffic diverges", label)
	}
	if rep1.L2PoweredBytes != m2.L2.PoweredBytes() {
		t.Fatalf("%s: composed powered bytes diverge", label)
	}
	if m1.Dynamic != nil {
		if !reflect.DeepEqual(m1.Dynamic.History(), m2.Dynamic.History()) {
			t.Fatalf("%s: composed partition history diverges", label)
		}
	}
}

// runSegments replays total records from src as k equal consecutive
// RunFrom segments on one RunState (the last segment takes the
// remainder) and reports the outcome the way RunTrace does.
func runSegments(m *Machine, name string, src trace.Source, total, k uint64) RunReport {
	rs := m.CPU.NewRunState()
	per := total / k
	for i := uint64(0); i < k-1; i++ {
		m.CPU.RunFrom(context.Background(), rs, src, per)
	}
	m.CPU.RunFrom(context.Background(), rs, src, total-per*(k-1))
	m.CPU.Finish()
	rep := RunReport{
		Machine:          m.Config.Name,
		Workload:         name,
		CPU:              rs.Result(),
		L2:               m.L2.Stats(),
		Energy:           m.Hier.Energy(),
		L2InstalledBytes: m.L2.SizeBytes(),
		L2PoweredBytes:   m.L2.PoweredBytes(),
		DRAMReads:        m.DRAM.Reads(),
		DRAMWrites:       m.DRAM.Writes(),
	}
	if m.Dynamic != nil {
		rep.History = m.Dynamic.History()
		rep.FlushWritebacks = m.Dynamic.FlushWritebacks()
	}
	return rep
}

// TestRunSegmentedExactMatchesSerial pins segment-boundary replay: a
// trace cut into four equal segments, replayed back to back on one
// machine, reproduces the serial run's whole report — counters,
// capacity snapshot, partition history, flush writebacks and energy —
// exactly, on every standard machine.
func TestRunSegmentedExactMatchesSerial(t *testing.T) {
	store := tracestore.New(0)
	prof := smallProfile()
	const total = 40_000
	tr, err := store.GetTrace(prof, 7, total)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range StandardMachines() {
		m1, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial := RunTrace(m1, prof.Name, tr.Cursor(), 0)

		m2, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seg := runSegments(m2, prof.Name, tr.Cursor(), total, 4)
		if seg.CPU.Accesses != total {
			t.Fatalf("%s: segmented replay covered %d accesses, want %d", cfg.Name, seg.CPU.Accesses, total)
		}
		if !reflect.DeepEqual(serial, seg) {
			t.Fatalf("%s: segmented replay diverges from serial:\n serial    %+v\n segmented %+v", cfg.Name, serial, seg)
		}
	}
}

// TestRunSegmentedExactPackedTier repeats the segment-boundary check on
// the packed-only tier (a budget that fits only the packed form demotes
// the hot decoded one), so the packed cursor is the one resumed across
// segment boundaries. The trace comes from a second lookup: the call
// that generated it still gets its own records back, and only a hit is
// packed-only.
func TestRunSegmentedExactPackedTier(t *testing.T) {
	prof := smallProfile()
	const total = 30_000
	full, err := tracestore.New(0).GetTrace(prof, 7, total)
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(full.Packed.SizeBytes())
	if _, err := store.GetTrace(prof, 7, total); err != nil {
		t.Fatal(err)
	}
	tr, err := store.GetTrace(prof, 7, total)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Records != nil {
		t.Fatal("packed-sized store kept the hot tier; test needs packed-only")
	}
	for _, name := range []string{"baseline-sram", "sp-mr", "dp-sr"} {
		cfg, err := MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m1, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial := RunTrace(m1, prof.Name, tr.Cursor(), 0)
		m2, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seg := runSegments(m2, prof.Name, tr.Cursor(), total, 3)
		if !reflect.DeepEqual(serial, seg) {
			t.Fatalf("%s: packed-tier segmented replay diverges from serial", name)
		}
	}
}
