// Package engine is the concurrent, memoizing front end to the core mapping
// searches: it fans per-layer searches and batch-sweep cells across a
// bounded worker pool and dedupes repeated (layer shape, array, method)
// combinations through a memo.Group — an LRU of search results with
// singleflight coalescing — because ResNet and VGG repeat layer shapes
// heavily, and experiment sweeps re-cost the same pairs from scratch
// otherwise.
//
// Every search goes through one memoized method, Search(ctx, layer, array,
// core.Method), which SearchVariant, SearchNetwork and Sweep build on: it
// runs core.Serial's search for the method (the im2col seed, the SMD or SDK
// baseline, the closed-form Algorithm 1 or a pruned ablation enumerator)
// under the memo, keyed on (layer shape, array, normalized method). Each
// search evaluates a few hundred cost classes at most, so the worker pool's
// parallelism is spent where it pays — across layers and sweep cells. The
// brute-force reference oracle is core.Exhaustive, which callers that need
// deliberately slow searches use directly.
//
// Every method is context-first: cancellation propagates into the worker
// pool (a search waiting for a slot gives the slot up), into in-flight
// dedupe waits, and into the search loops themselves via the core package's
// per-row checkpoints — so a cancelled caller actually stops burning CPU.
// Failed and cancelled searches are never cached or shared; the memo
// package documents the coalescing contract (DESIGN.md §6).
//
// Results are bit-identical to the serial algorithms in internal/core:
// every cached result is replayed with only the caller's layer name
// re-stamped, and differential tests assert equality on every predefined
// network.
//
// An Engine is safe for concurrent use; all methods may be called from any
// goroutine.
package engine

import (
	"context"
	"runtime"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
)

// Engine schedules mapping searches over a worker pool and memoizes their
// results. The zero value is not usable; call New.
type Engine struct {
	workers  int
	cacheCap int
	sem      chan struct{}                       // bounds concurrently running searches
	memo     *memo.Group[cacheKey, *core.Result] // name-cleared, never mutated

	// sweepCellHook, when non-nil, observes every sweep cell index just
	// before its dispatch check. Tests use it to cancel a context at a
	// deterministic point mid-sweep; it is never set in production.
	sweepCellHook func(i int)

	searches atomic.Uint64
	costed   atomic.Uint64
	pruned   atomic.Uint64
	running  atomic.Int64 // searches currently holding a worker-pool slot
}

// cacheKey identifies one memoizable search: the normalized layer shape
// (name cleared — ResNet/VGG repeat shapes under different names), the
// array, and the normalized method, so the SDK and SMD entries ignore the
// variant. core.Layer, core.Array and core.Method are comparable structs, so
// the key is directly usable as a map key.
type cacheKey struct {
	layer  core.Layer
	array  core.Array
	method core.Method
}

// newCacheKey normalizes l and m and strips l's name so equal shapes collide.
func newCacheKey(l core.Layer, a core.Array, m core.Method) cacheKey {
	l = l.Normalized()
	l.Name = ""
	return cacheKey{layer: l, array: a, method: m.Normalized()}
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the number of concurrently running searches;
// n < 1 restores the default (GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithCacheSize sets the LRU result-cache capacity in entries; 0 disables
// caching, n < 0 restores the default (4096).
func WithCacheSize(n int) Option {
	return func(e *Engine) { e.cacheCap = n }
}

// defaultCacheSize holds every distinct (shape, array, search) of a large
// multi-network, multi-array sweep with room to spare; one entry is a few
// hundred bytes.
const defaultCacheSize = 4096

// New returns an Engine with the given options applied.
func New(opts ...Option) *Engine {
	e := &Engine{workers: 0, cacheCap: -1}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.cacheCap < 0 {
		e.cacheCap = defaultCacheSize
	}
	e.sem = make(chan struct{}, e.workers)
	e.memo = memo.New[cacheKey, *core.Result](e.cacheCap)
	return e
}

// Workers reports the configured worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Stats are cumulative Engine counters. The JSON names are the "engine"
// object of vwsdkd's /stats.
type Stats struct {
	// Searches is the number of top-level search calls served.
	Searches uint64 `json:"searches"`

	// CacheHits counts searches answered from the LRU cache or joined onto
	// an identical in-flight search.
	CacheHits uint64 `json:"cache_hits"`

	// CacheMisses counts searches that ran the underlying algorithm
	// (including searches that were then cancelled mid-run).
	CacheMisses uint64 `json:"cache_misses"`

	// FlightDedupes counts searches that joined an identical in-flight
	// search instead of starting their own computation (counted at join
	// time; successful joins are also CacheHits).
	FlightDedupes uint64 `json:"flight_dedupes"`

	// Evictions counts results dropped from the LRU cache to respect its
	// capacity.
	Evictions uint64 `json:"evictions"`

	// CachedResults is the current number of cached results.
	CachedResults int `json:"cached_results"`

	// CandidatesCosted sums Result.Evaluated over every search the engine
	// actually computed (cache hits and in-flight joins cost nothing): the
	// number of candidates evaluated — per cost class for the VW-SDK and
	// variant searches, per window for the baselines.
	CandidatesCosted uint64 `json:"candidates_costed"`

	// CandidatesPruned counts the candidate windows the exhaustive sweeps
	// would have costed for those same searches but the default cost-class
	// walks skipped (core.ExhaustiveCandidates − Evaluated). Always 0 for
	// the im2col, SMD and SDK searches, which have no pruned/exhaustive
	// split.
	CandidatesPruned uint64 `json:"candidates_pruned"`

	// InFlightSearches is the number of searches currently holding a
	// worker-pool slot — a gauge, not cumulative.
	InFlightSearches int64 `json:"in_flight_searches"`
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	ms := e.memo.Stats()
	return Stats{
		Searches:         e.searches.Load(),
		CacheHits:        ms.Hits,
		CacheMisses:      ms.Misses,
		FlightDedupes:    ms.Dedupes,
		Evictions:        ms.Evictions,
		CachedResults:    ms.Entries,
		CandidatesCosted: e.costed.Load(),
		CandidatesPruned: e.pruned.Load(),
		InFlightSearches: e.running.Load(),
	}
}

// Search runs the method's search (core.Serial) under the cache and worker
// pool; bit-identical to core.Serial{}.Search.
func (e *Engine) Search(ctx context.Context, l core.Layer, a core.Array, m core.Method) (core.Result, error) {
	return e.memoized(ctx, newCacheKey(l, a, m), l.Name, func(ctx context.Context) (core.Result, error) {
		return e.withSlot(ctx, func() (core.Result, error) { return core.Serial{}.Search(ctx, l, a, m) })
	})
}

// SearchVariant runs a VW-SDK search under ablation variant v through
// Search.
func (e *Engine) SearchVariant(ctx context.Context, l core.Layer, a core.Array, v core.Variant) (core.Result, error) {
	return e.Search(ctx, l, a, core.Method{Scheme: core.SchemeVWSDK, Variant: v})
}

// SearchNetwork optimizes every layer through the engine concurrently and
// aggregates the totals, mirroring core.SearchNetwork (results in layer
// order, first error wins) with cached and pooled layer searches.
func (e *Engine) SearchNetwork(ctx context.Context, layers []core.Layer, a core.Array) (core.NetworkResult, error) {
	return e.SearchNetworkVariant(ctx, layers, a, core.VariantFull)
}

// SearchNetworkVariant is SearchNetwork under an ablation variant. The
// per-layer goroutines it fans out are cheap orchestrators — the actual
// costing inside each search is bounded by the worker pool.
func (e *Engine) SearchNetworkVariant(ctx context.Context, layers []core.Layer, a core.Array, v core.Variant) (core.NetworkResult, error) {
	search := func(ctx context.Context, l core.Layer, a core.Array) (core.Result, error) {
		return e.SearchVariant(ctx, l, a, v)
	}
	if e.workers == 1 {
		// Everything serializes through the one pool slot anyway; skipping
		// the per-layer goroutines avoids measurable scheduler churn.
		return core.SearchNetworkSeq(ctx, layers, a, search)
	}
	return core.SearchNetworkWith(ctx, layers, a, search)
}

// memoized serves one search through the engine's memo.Group. compute runs
// the underlying algorithm with the caller's original layer (so computed
// results and errors are exactly the serial ones); the stored copy is
// name-cleared, shared by pointer (a hit copies the 464-byte Result once)
// and re-stamped per caller. Errors — the leader's own cancellation
// included — go to the computing caller alone, per the memo contract.
func (e *Engine) memoized(ctx context.Context, k cacheKey, name string, compute func(context.Context) (core.Result, error)) (core.Result, error) {
	ctx, sp := obs.Start(ctx, "engine.search")
	defer sp.End()
	sp.SetStr("layer", name)
	e.searches.Add(1)
	res, out, err := e.memo.Do(ctx, k, func(ctx context.Context) (*core.Result, error) {
		res, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		e.countCandidates(k, res)
		sp.SetStr("path", searchPath(k.method)).SetInt("candidates", int64(res.Evaluated))
		res = anonymized(res)
		return &res, nil
	})
	sp.SetStr("outcome", outcomeNames[out])
	if err != nil {
		return core.Result{}, err
	}
	return renamed(*res, name), nil
}

// outcomeNames are the engine.search span's outcome attribute values.
var outcomeNames = [...]string{memo.Computed: "miss", memo.Hit: "hit", memo.Joined: "coalesced"}

// searchPath names the search implementation a computed result came from, for
// span attribution: closed-form for every full VW-SDK search (as
// core.SearchStats reports), pruned for the ablated variants' enumerators,
// baseline for im2col, SMD and SDK.
func searchPath(m core.Method) string {
	switch {
	case m.Scheme != core.SchemeVWSDK:
		return "baseline"
	case m.Variant == core.VariantFull:
		return core.PathClosedForm
	default:
		return "pruned"
	}
}

// countCandidates maintains the CandidatesCosted/CandidatesPruned counters
// for one computed (never cached) search result.
func (e *Engine) countCandidates(k cacheKey, res core.Result) {
	e.costed.Add(uint64(res.Evaluated))
	if k.method.Scheme != core.SchemeVWSDK {
		return
	}
	if ex := core.ExhaustiveCandidates(k.layer, k.method.Variant); ex > int64(res.Evaluated) {
		e.pruned.Add(uint64(ex - int64(res.Evaluated)))
	}
}

// withSlot runs f while holding one worker-pool slot, so every leaf search
// is bounded by WithWorkers; a caller cancelled while waiting for a slot
// gives up instead of queueing dead work. Callers must not already hold a
// slot (holding one while acquiring another would deadlock a single-worker
// pool); the orchestration layers (memoized, SearchNetworkVariant, Sweep)
// never do.
func (e *Engine) withSlot(ctx context.Context, f func() (core.Result, error)) (core.Result, error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	}
	e.running.Add(1)
	defer func() {
		e.running.Add(-1)
		<-e.sem
	}()
	return f()
}

// anonymized clears the layer name from a result so shape-equal layers share
// one cache entry.
func anonymized(res core.Result) core.Result { return renamed(res, "") }

// renamed stamps name onto the result's mappings.
func renamed(res core.Result, name string) core.Result {
	res.Best.Layer.Name = name
	res.Im2col.Layer.Name = name
	return res
}
