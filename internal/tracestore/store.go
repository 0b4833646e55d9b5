// Package tracestore is the shared trace arena behind the sweep
// engine: a memoizing store of packed, immutable workload traces keyed
// by (profile, seed, phase length, accesses). Every experiment cell
// (machine x app x seed) replays the byte-identical access stream, so
// generating it once and handing out zero-allocation replay cursors
// removes the dominant redundant work of a sweep — the seven standard
// machines alone regenerate each trace seven times without it.
//
// The store deduplicates concurrent generation (N goroutines asking for
// the same key trigger exactly one generator run; the rest wait) and
// bounds its memory with an LRU byte budget, so sweeps over many
// (app, seed) pairs degrade to regeneration instead of growing without
// limit.
//
// Traces are held in two tiers. The hot tier is the materialized record
// slice the generator produced, replayed zero-copy (trace.SliceCursor)
// with no per-record decoding; the packed tier is the struct-of-arrays
// compressed form, several times smaller, replayed through a
// zero-allocation decoding cursor. Under budget pressure the store
// first demotes least-recently-used traces from hot to packed-only,
// then evicts them entirely. The call that builds a trace always gets
// its records back, even when the commit demoted them on arrival (a
// trace larger than its shard's budget): it made them, so replaying
// them costs nothing extra. Only later hits are limited to what the
// arena kept.
//
// Synchronization is lock-striped (internal/shardlru): the trace key
// hashes to one of a small number of shards, each with its own mutex,
// LRU list and slice of the byte budget, so concurrent workers warming
// different traces — or hitting different warm ones — never serialize
// on a global mutex. Eviction and demotion decisions are therefore
// shard-local (an LRU-locality change only; the streams a hit returns
// are byte-identical either way), and derived variants (DeriveTrace)
// hash like any other key, so a base trace and its variants spread
// across shards independently.
package tracestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"unsafe"

	"mobilecache/internal/shardlru"
	"mobilecache/internal/trace"
	"mobilecache/internal/workload"
)

// DefaultBudgetBytes is the default LRU capacity (256 MB across both
// tiers — roughly a dozen full-scale app traces in hot decoded form,
// or a hundred demoted to their packed streams).
const DefaultBudgetBytes = 256 << 20

// DefaultShards is the arena's default stripe count. Traces are few
// and large (tens of MB hot), so the count stays small: each shard's
// slice of the byte budget must still hold whole hot traces, or
// striping the budget would force demotions a global budget wouldn't.
const DefaultShards = 8

// Key identifies one generated trace. Two cells with equal keys replay
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
	// Variant is empty for generator traces. Derived forms (see
	// DeriveTrace) set it to the transform's identity tag, so a base
	// trace and its derived streams coexist in the arena without
	// aliasing.
	Variant string
}

// shardHash spreads a key across shards: the profile digest is already
// uniform, and the remaining fields (seed, lengths, variant) are mixed
// in so sibling traces of one profile land on different stripes.
func shardHash(k Key) uint64 {
	h := binary.LittleEndian.Uint64(k.Digest[:8])
	h = shardlru.Mix64(h ^ k.Seed)
	h = shardlru.Mix64(h ^ k.PhaseLen)
	h = shardlru.Mix64(h ^ uint64(k.Accesses))
	if k.Variant != "" {
		f := fnv.New64a()
		f.Write([]byte(k.Variant))
		h = shardlru.Mix64(h ^ f.Sum64())
	}
	return h
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
	// Generated counts completed generations (misses minus failures).
	Generated uint64
	// Derived counts completed derived-trace builds (DeriveTrace
	// misses that ran their transform; included in Misses/Generated
	// alongside base generations).
	Derived uint64
	// Evictions counts traces dropped by the LRU budget.
	Evictions uint64
	// Demotions counts hot decoded forms dropped to fit the budget
	// while their packed form stayed resident.
	Demotions uint64
	// BytesInUse and Entries describe the current resident set.
	BytesInUse int64
	Entries    int
	// Shards is the stripe count; MaxShardEntries/MinShardEntries the
	// most and least populated stripes (the /metrics skew gauge).
	Shards          int
	MaxShardEntries int
	MinShardEntries int
}

// entry is one cached trace plus its singleflight state: ready is
// closed once packed/err are final, and waiters block on it outside
// the shard lock.
type entry struct {
	ready chan struct{}

	// packed, err and meta are written by the generating goroutine
	// before ready closes and immutable afterwards; waiters read them
	// only after <-ready (the close is the happens-before edge).
	packed *trace.Packed
	err    error
	// meta is the opaque metadata a DeriveTrace build returned (nil
	// for base traces).
	meta any

	// decoded is the hot-tier form: the materialized record slice the
	// generator produced, kept alongside the packed streams so replays
	// can skip per-record decoding entirely. Under budget pressure the
	// shard demotes entries to packed-only (the cache's Demote hook) by
	// dropping this slice; demoted traces replay through a packed
	// cursor instead. Both fields are guarded by the entry's shard lock
	// once the entry is committed. Readers treat the slice as
	// immutable.
	decoded      []trace.Access
	decodedBytes int64
}

// sizeBytes is the entry's total charge against the LRU budget.
func (e *entry) sizeBytes() int64 {
	if e.packed == nil {
		return 0
	}
	return e.packed.SizeBytes() + e.decodedBytes
}

// Store memoizes packed traces with singleflight generation and a
// lock-striped LRU byte budget. The zero value is not usable; call New.
type Store struct {
	cache *shardlru.Cache[Key, *entry]

	// generated/derived count completed builds; they live here (not in
	// the sharded cache) because the cache only sees lookups and
	// insertions, not which insertions came from a derive transform.
	generated atomic.Uint64
	derived   atomic.Uint64
}

// New builds a store with the given LRU byte budget and the default
// stripe count; budgetBytes <= 0 means unlimited.
func New(budgetBytes int64) *Store {
	return NewSharded(budgetBytes, DefaultShards)
}

// NewSharded is New with an explicit stripe count (rounded to a power
// of two; see shardlru.Config). Tests pin exact global-LRU eviction
// order with shards = 1; the contention benchmark uses the same
// configuration as its global-lock baseline.
func NewSharded(budgetBytes int64, shards int) *Store {
	s := &Store{}
	s.cache = shardlru.New(shardlru.Config[Key, *entry]{
		Shards: shards,
		Budget: budgetBytes, // <= 0 is unlimited in both layers
		Hash:   shardHash,
		Demote: func(_ Key, e *entry) int64 {
			r := e.decodedBytes
			e.decoded, e.decodedBytes = nil, 0
			return r
		},
	})
	return s
}

// Stats returns a snapshot of the counters, aggregated across shards
// without a global lock.
func (s *Store) Stats() Stats {
	cs := s.cache.Stats()
	return Stats{
		Hits:            cs.Hits,
		Misses:          cs.Misses,
		Generated:       s.generated.Load(),
		Derived:         s.derived.Load(),
		Evictions:       cs.Evictions,
		Demotions:       cs.Demotions,
		BytesInUse:      cs.CostInUse,
		Entries:         cs.Entries,
		Shards:          cs.Shards,
		MaxShardEntries: cs.MaxShardEntries,
		MinShardEntries: cs.MinShardEntries,
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
// trace — a deterministic per-record transform like set-sample
// filtering — built at most once per variant tag and cached in the
// same lock-striped LRU as base traces (hot decoded forms demote
// first, whole entries evict last; an evicted derived trace is rebuilt
// from its base on the next request). build receives the base trace
// and returns the derived packed and decoded forms plus opaque
// metadata the store hands back on every hit (e.g. the filter's
// measured statistics — anything a replay of the derived stream alone
// could not recover). The variant tag must capture the transform's
// full identity: two different transforms under one tag would alias.
//
// Like GetTrace, concurrent calls for one (key, variant) share a single
// build, and failures are not cached.
func (s *Store) DeriveTrace(prof workload.Profile, seed uint64, accesses int, variant string,
	build func(Trace) (*trace.Packed, []trace.Access, any, error)) (Trace, any, error) {
	if variant == "" {
		return Trace{}, nil, fmt.Errorf("tracestore: DeriveTrace needs a variant tag")
	}
	base, err := s.GetTrace(prof, seed, accesses)
	if err != nil {
		return Trace{}, nil, err
	}
	key := KeyFor(prof, seed, accesses)
	key.Variant = variant
	tr, meta, err := s.getOrBuildMeta(key, func() (*trace.Packed, []trace.Access, any, error) {
		return build(base)
	}, &s.derived)
	return tr, meta, err
}

// getOrBuild is getOrBuildMeta discarding the metadata (base traces
// carry none).
func (s *Store) getOrBuild(key Key, build func() (*trace.Packed, []trace.Access, any, error)) (Trace, error) {
	tr, _, err := s.getOrBuildMeta(key, build, nil)
	return tr, err
}

// getOrBuildMeta is the store's single lookup/build path: join (or
// start) the singleflight entry for key, run build outside any lock on
// a miss, and commit the result into the key's shard. A hit returns
// the forms the arena holds now: the packed stream, plus the records
// unless they were demoted. The call that ran build returns the
// records build made even when the commit demoted them at once, so a
// trace bigger than its shard's budget is still replayed without
// decoding by the cell that generated it. derived, when non-nil, is
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
		// shard lock. The entry may have been evicted (or even replaced)
		// since the lookup; its packed form stays valid regardless, and
		// a demoted or evicted entry simply replays packed.
		var recs []trace.Access
		s.cache.WithShardLock(key, func() { recs = e.decoded })
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
	// Commit charges the entry and may demote it on the spot (its shard
	// budget can be smaller than the hot form). This call still holds
	// the records build just made, so its caller replays them either
	// way: a demotion only drops the arena's reference, and later hits
	// see what the arena kept.
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
