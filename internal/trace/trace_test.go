package trace

import (
	"testing"
	"testing/quick"
)

func TestDomainString(t *testing.T) {
	if User.String() != "user" || Kernel.String() != "kernel" {
		t.Fatalf("domain strings = %q/%q", User, Kernel)
	}
	if got := Domain(7).String(); got != "domain(7)" {
		t.Fatalf("bad domain string = %q", got)
	}
}

func TestDomainOther(t *testing.T) {
	if User.other() != Kernel || Kernel.other() != User {
		t.Fatal("other() is not an involution on {User,Kernel}")
	}
}

func TestDomainValid(t *testing.T) {
	if !User.Valid() || !Kernel.Valid() {
		t.Fatal("defined domains must be valid")
	}
	if Domain(2).Valid() {
		t.Fatal("domain 2 must be invalid")
	}
}

func TestOpProperties(t *testing.T) {
	if Load.IsWrite() || Ifetch.IsWrite() {
		t.Fatal("load/ifetch must not be writes")
	}
	if !Store.IsWrite() {
		t.Fatal("store must be a write")
	}
	for _, o := range []Op{Load, Store, Ifetch} {
		if !o.Valid() {
			t.Fatalf("%v must be valid", o)
		}
	}
	if Op(3).Valid() {
		t.Fatal("op 3 must be invalid")
	}
	if Load.String() != "load" || Store.String() != "store" || Ifetch.String() != "ifetch" {
		t.Fatal("op string names wrong")
	}
}

func TestAccessValidate(t *testing.T) {
	good := Access{Addr: 1, Op: Store, Domain: Kernel}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid access rejected: %v", err)
	}
	if err := (Access{Op: Op(9)}).Validate(); err == nil {
		t.Fatal("invalid op accepted")
	}
	if err := (Access{Domain: Domain(9)}).Validate(); err == nil {
		t.Fatal("invalid domain accepted")
	}
}

func TestAccessInstructions(t *testing.T) {
	if n := (Access{Gap: 0}).Instructions(); n != 1 {
		t.Fatalf("gap 0 => %d instructions, want 1", n)
	}
	if n := (Access{Gap: 9}).Instructions(); n != 10 {
		t.Fatalf("gap 9 => %d instructions, want 10", n)
	}
}

func sampleTrace() []Access {
	return []Access{
		{Addr: 0x1000, PC: 0x400, Gap: 3, Op: Load, Domain: User},
		{Addr: 0x2000, PC: 0x404, Gap: 0, Op: Store, Domain: User},
		{Addr: 0xffff0000, PC: 0xffff8000, Gap: 12, Op: Load, Domain: Kernel},
		{Addr: 0x1040, PC: 0x408, Gap: 1, Op: Ifetch, Domain: User},
		{Addr: 0xffff0040, PC: 0xffff8004, Gap: 0, Op: Store, Domain: Kernel},
	}
}

func TestSliceSource(t *testing.T) {
	src := NewSliceSource(sampleTrace())
	got := Collect(src, 0)
	if len(got) != 5 {
		t.Fatalf("collected %d, want 5", len(got))
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source yielded a record")
	}
	if got := Collect(NewSliceSource(sampleTrace()), 2); len(got) != 2 {
		t.Fatalf("limited collect = %d, want 2", len(got))
	}
}

func TestLimitSource(t *testing.T) {
	src := NewLimitSource(NewSliceSource(sampleTrace()), 3)
	if got := Collect(src, 0); len(got) != 3 {
		t.Fatalf("limit source = %d records, want 3", len(got))
	}
	src = NewLimitSource(NewSliceSource(sampleTrace()), 0)
	if _, ok := src.Next(); ok {
		t.Fatal("zero-limit source yielded a record")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(NewSliceSource(sampleTrace()))
	if s.Records != 5 {
		t.Fatalf("records = %d, want 5", s.Records)
	}
	if s.Instructions != 5+3+12+1 {
		t.Fatalf("instructions = %d, want 21", s.Instructions)
	}
	if s.ByDomain[User] != 3 || s.ByDomain[Kernel] != 2 {
		t.Fatalf("by-domain = %v", s.ByDomain)
	}
	if s.Stores != 2 {
		t.Fatalf("stores = %d, want 2", s.Stores)
	}
	if ks := s.KernelShare(); ks != 0.4 {
		t.Fatalf("kernel share = %g, want 0.4", ks)
	}
	if ws := s.WriteShare(); ws != 0.4 {
		t.Fatalf("write share = %g, want 0.4", ws)
	}
	if s.MinAddr != 0x1000 || s.MaxAddr != 0xffff0040 {
		t.Fatalf("addr range = %#x..%#x", s.MinAddr, s.MaxAddr)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(NewSliceSource(nil))
	if s.Records != 0 || s.KernelShare() != 0 || s.WriteShare() != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestKernelSharePlusUserShareIsOne(t *testing.T) {
	f := func(raw []struct {
		Addr uint64
		Dom  bool
	}) bool {
		recs := make([]Access, len(raw))
		for i, r := range raw {
			d := User
			if r.Dom {
				d = Kernel
			}
			recs[i] = Access{Addr: r.Addr, Op: Load, Domain: d}
		}
		s := Summarize(NewSliceSource(recs))
		if s.Records == 0 {
			return s.KernelShare() == 0
		}
		userShare := float64(s.ByDomain[User]) / float64(s.Records)
		return userShare+s.KernelShare() == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
