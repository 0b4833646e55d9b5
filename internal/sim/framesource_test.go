package sim

import (
	"reflect"
	"testing"

	"mobilecache/internal/sample"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
)

// TestFrameSourcesAgree replays the same records through every kind of
// source the CPU's single replay loop meets — the packed cursor, the
// hot-tier slice cursor, a factor-1 sampling filter and a plain Next
// source behind the CPU's adapter — and requires identical reports on
// every standard machine.
func TestFrameSourcesAgree(t *testing.T) {
	store := tracestore.New(0)
	prof := smallProfile()
	const total = 30_000
	tr, err := store.GetTrace(prof, 5, total)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Records == nil {
		t.Fatal("unbudgeted store did not keep the hot tier")
	}
	sel, err := sample.NewSelector(sample.Spec{Factor: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name  string
		frame bool // implements trace.FrameSource itself
		src   func() trace.Source
	}{
		{"packed", true, func() trace.Source { c := tr.Packed.Cursor(); return &c }},
		{"slice", true, func() trace.Source { c := trace.NewSliceCursor(tr.Records); return &c }},
		{"sample-1/1", true, func() trace.Source { c := tr.Packed.Cursor(); return sample.NewSource(sel, &c) }},
		{"next", false, func() trace.Source { return trace.NewLimitSource(trace.NewSliceSource(tr.Records), total) }},
	}
	for _, cfg := range StandardMachines() {
		var want RunReport
		for i, s := range sources {
			src := s.src()
			if _, ok := src.(trace.FrameSource); ok != s.frame {
				t.Fatalf("%s: FrameSource = %v, want %v", s.name, ok, s.frame)
			}
			m, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := RunTrace(m, prof.Name, src, 0)
			if rep.CPU.Accesses != total {
				t.Fatalf("%s/%s: replayed %d accesses, want %d", cfg.Name, s.name, rep.CPU.Accesses, total)
			}
			if i == 0 {
				want = rep
				continue
			}
			if !reflect.DeepEqual(want, rep) {
				t.Fatalf("%s: %s replay diverges from %s:\n %s %+v\n %s %+v",
					cfg.Name, s.name, sources[0].name, sources[0].name, want, s.name, rep)
			}
		}
	}
}
