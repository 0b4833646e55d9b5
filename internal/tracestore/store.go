// Package tracestore is the shared trace arena behind the sweep
// engine: a memoizing store of immutable per-trace products keyed by
// (profile, seed, phase length, accesses) and a variant tag. Every
// experiment cell (machine x app x seed) replays the byte-identical
// access stream, so building what the cells replay once and handing it
// to each of them removes the dominant redundant work of a sweep. In
// production that product is sim's shared front-stage output, which
// Derive stores: it is built straight from the generator, and the
// arena keeps no trace beside it.
//
// The store deduplicates concurrent builds (N goroutines asking for
// the same key trigger exactly one build; the rest wait) and bounds
// its memory with an LRU byte budget, so sweeps over many (app, seed)
// pairs degrade to rebuilding instead of growing without limit.
//
// GetTrace and DeriveTrace store traces themselves; outside tests only
// the repository benchmark calls them. Such traces are held in two
// tiers. The hot tier is the materialized record slice the generator
// produced, replayed zero-copy (trace.SliceCursor) with no per-record
// decoding; the packed tier is the struct-of-arrays compressed form,
// several times smaller, replayed through a zero-allocation decoding
// cursor. Under budget pressure the store first demotes
// least-recently-used traces from hot to packed-only, then evicts
// whole entries. The call that builds an entry always gets what it
// built back, even when the commit demoted or evicted it on arrival
// (an entry larger than the budget): it made it, so replaying it costs
// nothing extra. Only later hits are limited to what the arena kept.
//
// The entries sit in one LRU behind one mutex (internal/lru): builds
// run outside the lock, and a cell takes it only to look up and to
// commit.
package tracestore

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"unsafe"

	"mobilecache/internal/lru"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

// DefaultBudgetBytes is the default LRU capacity: 256 MB, several
// hundred full-scale front outputs (under half a megabyte each at
// 400 000 accesses).
const DefaultBudgetBytes = 256 << 20

// Key identifies one arena entry: a generated trace, or with a Variant
// a product derived from it. Two cells with equal trace fields replay
// byte-identical streams regardless of the machine under test.
type Key struct {
	// Profile is the workload profile name.
	Profile string
	// Digest is a content hash of the whole profile. The name alone is
	// not a safe identity: a profile modified under an unchanged name
	// (an experiment perturbing burst lengths, say) would otherwise
	// replay the stale trace generated for the original.
	Digest [sha256.Size]byte
	// Seed drives the generator.
	Seed uint64
	// PhaseLen is the per-phase access count (see workload.PhaseLen).
	PhaseLen uint64
	// Accesses is the trace length.
	Accesses int
	// Variant is empty for generator traces. Derived entries (see
	// Derive and DeriveTrace) set it to the build's identity tag, so
	// the entries of one trace coexist in the arena without aliasing.
	Variant string
}

// KeyFor derives the store key a full-trace run of prof uses, applying
// the same phase-length rule as sim.Run.
func KeyFor(prof workload.Profile, seed uint64, accesses int) Key {
	// Profiles are plain data; marshal only fails for non-finite
	// floats, which the generator rejects anyway — such a key can never
	// reach a usable trace, so a zero digest is harmless.
	b, _ := json.Marshal(prof)
	return Key{
		Profile:  prof.Name,
		Digest:   sha256.Sum256(b),
		Seed:     seed,
		PhaseLen: workload.PhaseLen(prof, accesses),
		Accesses: accesses,
	}
}

// Stats is a snapshot of the store's counters. A sweep surfaces these
// in its run summary so cache effectiveness is visible.
type Stats struct {
	// Hits counts lookups served from memory, including callers that
	// joined an in-flight generation instead of starting their own.
	Hits uint64
	// Misses counts lookups that had to start a build.
	Misses uint64
	// Generated counts completed builds (misses minus failures).
	Generated uint64
	// Derived counts the completed builds of derived entries (Derive
	// and DeriveTrace misses that ran their build), which Generated
	// includes.
	Derived uint64
	// Evictions counts entries dropped by the LRU budget.
	Evictions uint64
	// Demotions counts hot decoded forms dropped to fit the budget
	// while their packed form stayed resident.
	Demotions uint64
	// BytesInUse and Entries describe the current resident set.
	BytesInUse int64
	Entries    int
}

// entry is one cached trace plus its singleflight state: ready is
// closed once packed/err are final, and waiters block on it outside
// the cache's lock.
type entry struct {
	ready chan struct{}

	// packed, err and meta are written by the generating goroutine
	// before ready closes and immutable afterwards; waiters read them
	// only after <-ready (the close is the happens-before edge).
	packed *trace.Packed
	err    error
	// meta is the product a Derive build returned, or the opaque
	// metadata a DeriveTrace build did (nil for base traces).
	meta any

	// decoded is the hot-tier form: the materialized record slice the
	// generator produced, kept alongside the packed streams so replays
	// can skip per-record decoding entirely. Under budget pressure the
	// cache demotes entries to packed-only (its Demote hook) by
	// dropping this slice; demoted traces replay through a packed
	// cursor instead. Both fields are guarded by the cache's lock once
	// the entry is committed. Readers treat the slice as
	// immutable.
	decoded      []trace.Access
	decodedBytes int64
}

// sizer is a derived product that reports its memory footprint (see
// Derive).
type sizer interface{ SizeBytes() int64 }

// sizeBytes is the entry's total charge against the LRU budget: every
// form it holds, at its real size.
func (e *entry) sizeBytes() int64 {
	n := e.decodedBytes
	if e.packed != nil {
		n += e.packed.SizeBytes()
	}
	if m, ok := e.meta.(sizer); ok {
		n += m.SizeBytes()
	}
	return n
}

// Store memoizes arena entries with singleflight builds and an LRU
// byte budget. The zero value is not usable; call New.
type Store struct {
	cache *lru.Cache[Key, *entry]

	// generated/derived count completed builds; they live here (not in
	// the cache) because the cache only sees lookups and insertions,
	// not which insertions came from a derive transform.
	generated atomic.Uint64
	derived   atomic.Uint64
}

// New builds a store with the given LRU byte budget; budgetBytes <= 0
// means unlimited.
func New(budgetBytes int64) *Store {
	s := &Store{}
	s.cache = lru.New(lru.Config[Key, *entry]{
		Budget: budgetBytes, // <= 0 is unlimited in both layers
		Demote: func(_ Key, e *entry) int64 {
			r := e.decodedBytes
			e.decoded, e.decodedBytes = nil, 0
			return r
		},
	})
	return s
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	cs := s.cache.Stats()
	return Stats{
		Hits:       cs.Hits,
		Misses:     cs.Misses,
		Generated:  s.generated.Load(),
		Derived:    s.derived.Load(),
		Evictions:  cs.Evictions,
		Demotions:  cs.Demotions,
		BytesInUse: cs.CostInUse,
		Entries:    cs.Entries,
	}
}

// Trace is one store result: the packed form is always present, and
// Records additionally holds the decoded records when the caller may
// replay them directly (via trace.SliceCursor) and skip per-record
// decoding — on a hit, when the budget let the arena keep the hot
// tier; on the call that generated the trace, always, since that call
// holds the records it made whether or not the arena kept them.
// Both forms are immutable and describe the byte-identical stream.
type Trace struct {
	Packed  *trace.Packed
	Records []trace.Access
}

// Cursor returns the fastest available replay source for the trace: a
// zero-copy slice cursor over the hot decoded form when resident, else
// a zero-allocation packed cursor.
func (t Trace) Cursor() trace.Source {
	if t.Records != nil {
		cur := trace.NewSliceCursor(t.Records)
		return &cur
	}
	cur := t.Packed.Cursor()
	return &cur
}

// GetTrace returns the trace for (prof, seed, accesses), generating it
// on first request; see Trace for which forms it carries. Concurrent
// calls for one key share a single generation. Both forms are
// immutable — callers replay them through their own cursors and must
// not retain them longer than needed (the LRU may drop or demote them
// at any time; dropped forms stay valid for existing holders).
// Outside tests only the repository benchmark calls it: sim.Run stores
// front outputs through Derive, and no trace.
func (s *Store) GetTrace(prof workload.Profile, seed uint64, accesses int) (Trace, error) {
	if accesses <= 0 {
		return Trace{}, fmt.Errorf("tracestore: accesses %d must be positive", accesses)
	}
	key := KeyFor(prof, seed, accesses)
	return s.getOrBuild(key, func() (*trace.Packed, []trace.Access, any, error) {
		p, recs, err := generate(prof, seed, key)
		return p, recs, nil, err
	})
}

// DeriveTrace returns a derived form of the (prof, seed, accesses)
// trace — a deterministic transform like set-sample filtering — built
// at most once per variant tag and cached in the same LRU as base
// traces (hot decoded forms demote first, whole entries evict
// last; an evicted derived trace is rebuilt from its base on the next
// request). build receives the base trace and returns the derived
// packed and decoded forms plus opaque metadata the store hands back
// on every hit (e.g. the filter's measured statistics — anything a
// replay of the derived stream alone could not recover). The variant
// tag must capture the transform's full identity: two different
// transforms under one tag would alias. Outside tests only the
// repository benchmark calls it; Derive builds a product without a
// base trace.
//
// The base trace is looked up only when the derived form is not
// resident, so a hit neither needs nor touches it. Like GetTrace,
// concurrent calls for one (key, variant) share a single build, and
// failures are not cached.
func (s *Store) DeriveTrace(prof workload.Profile, seed uint64, accesses int, variant string,
	build func(Trace) (*trace.Packed, []trace.Access, any, error)) (Trace, any, error) {
	key, err := derivedKey(prof, seed, accesses, variant)
	if err != nil {
		return Trace{}, nil, err
	}
	return s.getOrBuildMeta(key, func() (*trace.Packed, []trace.Access, any, error) {
		base, err := s.GetTrace(prof, seed, accesses)
		if err != nil {
			return nil, nil, nil, err
		}
		return build(base)
	}, &s.derived)
}

// Derive returns the product build makes for the (prof, seed,
// accesses) trace under a variant tag, built at most once per tag and
// cached in the same LRU as every other entry; an evicted product is
// rebuilt on the next request. build gets no trace: it makes the
// product from the generator itself, so the arena neither looks up nor
// keeps a base trace for it. A product with a SizeBytes() int64
// method is charged at that size (sim's shared front-stage output
// is). The variant tag must capture the product's full identity: two
// different builds under one tag would alias. Concurrent calls for
// one (key, variant) share a single build, and failures are not
// cached.
func (s *Store) Derive(prof workload.Profile, seed uint64, accesses int, variant string, build func() (any, error)) (any, error) {
	key, err := derivedKey(prof, seed, accesses, variant)
	if err != nil {
		return nil, err
	}
	_, v, err := s.getOrBuildMeta(key, func() (*trace.Packed, []trace.Access, any, error) {
		v, err := build()
		return nil, nil, v, err
	}, &s.derived)
	return v, err
}

// derivedKey is the key of (prof, seed, accesses)'s entry under
// variant.
func derivedKey(prof workload.Profile, seed uint64, accesses int, variant string) (Key, error) {
	if variant == "" {
		return Key{}, fmt.Errorf("tracestore: a derived entry needs a variant tag")
	}
	if accesses <= 0 {
		return Key{}, fmt.Errorf("tracestore: accesses %d must be positive", accesses)
	}
	key := KeyFor(prof, seed, accesses)
	key.Variant = variant
	return key, nil
}

// getOrBuild is getOrBuildMeta discarding the metadata (base traces
// carry none).
func (s *Store) getOrBuild(key Key, build func() (*trace.Packed, []trace.Access, any, error)) (Trace, error) {
	tr, _, err := s.getOrBuildMeta(key, build, nil)
	return tr, err
}

// getOrBuildMeta is the store's single lookup/build path: join (or
// start) the singleflight entry for key, run build outside any lock on
// a miss, and commit the result. A hit returns the forms the arena
// holds now: the packed stream, plus the records unless they were
// demoted. The call that ran build returns what build made even when
// the commit demoted or evicted it at once, so a trace bigger than the
// budget is still replayed without decoding by the cell that generated
// it. derived, when non-nil, is
// bumped alongside the generated counter on successful builds.
func (s *Store) getOrBuildMeta(key Key, build func() (*trace.Packed, []trace.Access, any, error),
	derived *atomic.Uint64) (Trace, any, error) {
	e := &entry{ready: make(chan struct{})}
	got, reserved := s.cache.GetOrReserve(key, e)
	if !reserved {
		e = got
		<-e.ready
		if e.err != nil {
			return Trace{}, nil, e.err
		}
		// packed, err and meta are immutable once ready closes, but
		// decoded can be demoted at any time — re-read it under the
		// cache's lock. The entry may have been evicted (or even replaced)
		// since the lookup; its packed form stays valid regardless, and
		// a demoted or evicted entry simply replays packed.
		var recs []trace.Access
		s.cache.WithLock(func() { recs = e.decoded })
		return Trace{Packed: e.packed, Records: recs}, e.meta, nil
	}

	packed, recs, meta, err := build()

	e.packed, e.err, e.meta = packed, err, meta
	if err != nil {
		// Failures are not cached: a later lookup retries.
		s.cache.Delete(key)
		close(e.ready)
		return Trace{}, nil, err
	}
	e.decoded = recs
	e.decodedBytes = int64(len(recs)) * int64(unsafe.Sizeof(trace.Access{}))
	s.generated.Add(1)
	if derived != nil {
		derived.Add(1)
	}
	// Commit charges the entry and may demote or evict it on the spot
	// (the budget can be smaller than the entry). This call still holds
	// what build just made, so its caller replays it either way: a
	// demotion or eviction only drops the arena's reference, and later
	// hits see what the arena kept.
	s.cache.Commit(key, e.sizeBytes())
	close(e.ready)
	return Trace{Packed: packed, Records: recs}, meta, nil
}

// generate runs the workload generator for exactly the stream sim.Run
// would replay, materializing the records and packing them. Both forms
// come from the same generator pass, so they are identical by
// construction.
func generate(prof workload.Profile, seed uint64, key Key) (*trace.Packed, []trace.Access, error) {
	gen, err := workload.NewGenerator(prof, seed, key.PhaseLen)
	if err != nil {
		return nil, nil, err
	}
	recs := make([]trace.Access, 0, key.Accesses)
	for len(recs) < key.Accesses {
		a, ok := gen.Next()
		if !ok {
			break
		}
		recs = append(recs, a)
	}
	return trace.PackSlice(recs), recs, nil
}
