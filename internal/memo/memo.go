// Package memo is the one memoization primitive of the stack: a bounded LRU
// of computed values with singleflight coalescing of identical in-flight
// computations. The engine's search-result memo, the server's plan cache and
// the plan-verification table are all a Group; this file is where their
// shared coalescing and cancellation contract is implemented and
// (memo_test.go) proven.
//
// The contract of Group.Do (DESIGN.md §6, "Coalescing contract"):
//
//   - A stored key is a hit: its value is returned without computing.
//   - A key already being computed is joined: the caller waits for the
//     running computation (the flight) instead of starting its own.
//   - A joiner whose own ctx ends while it waits returns ctx.Err(); the
//     flight's leader keeps running for everyone else.
//   - A leader's success is stored and shared with every joiner.
//   - A leader's failure — including its own cancellation — is never stored
//     or shared: the error goes to the leader alone, and its joiners start
//     over from the top, so one of them leads the retry and the rest join
//     it. A failed flight therefore costs one retry, not one per joiner.
//   - A compute that panics fails its flight the same way; the panic
//     propagates to the leader.
//   - A capacity ≤ 0 stores nothing but still coalesces.
//
// Hits, Misses, Dedupes, Evictions and Entries are counted as described on
// Stats.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Outcome reports how Do produced its value.
type Outcome uint8

const (
	// Computed: the caller led a flight and ran compute itself.
	Computed Outcome = iota
	// Hit: the value was already stored.
	Hit
	// Joined: the caller waited on another caller's flight.
	Joined
)

// Stats are a Group's cumulative counters and its current size. The JSON
// names are part of the server's /stats payload.
type Stats struct {
	// Hits counts calls answered without computing: stored hits plus
	// successful joins. Misses counts computes actually run.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`

	// Dedupes counts joins onto an in-flight computation, counted at join
	// time (successful joins are also Hits).
	Dedupes uint64 `json:"dedupes"`

	// Evictions counts values dropped to respect the capacity.
	Evictions uint64 `json:"evictions"`

	// Entries is the current number of stored values.
	Entries int `json:"entries"`
}

// Group is an LRU of at most a fixed number of values with singleflight
// coalescing per key. Build one with New; a Group is safe for concurrent
// use.
type Group[K comparable, V any] struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recently used; values are *entry[K, V]
	items  map[K]*list.Element
	flight map[K]*call[V]

	hits, misses, dedupes, evictions atomic.Uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// call is one flight; joiners block on done, then read val and err.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// errPanicked fails the flight of a compute that panicked.
var errPanicked = errors.New("memo: compute panicked")

// New returns a Group storing at most capacity values; capacity ≤ 0 stores
// nothing and only coalesces.
func New[K comparable, V any](capacity int) *Group[K, V] {
	g := &Group[K, V]{cap: capacity, flight: make(map[K]*call[V])}
	if capacity > 0 {
		// The map grows with use: the capacity is a bound, and presizing the
		// map to it would commit that memory up front.
		g.order = list.New()
		g.items = make(map[K]*list.Element)
	}
	return g
}

// Do returns the value for k: stored, joined from an identical in-flight
// computation, or computed by compute under ctx and then stored, following
// the package contract. The returned value is shared with other callers.
func (g *Group[K, V]) Do(ctx context.Context, k K, compute func(context.Context) (V, error)) (V, Outcome, error) {
	for {
		g.mu.Lock()
		if el, ok := g.items[k]; ok {
			g.order.MoveToFront(el)
			v := el.Value.(*entry[K, V]).val
			g.mu.Unlock()
			g.hits.Add(1)
			return v, Hit, nil
		}
		c, ok := g.flight[k]
		if !ok {
			c = &call[V]{done: make(chan struct{})}
			g.flight[k] = c
			g.mu.Unlock()
			v, err := g.lead(ctx, k, c, compute)
			return v, Computed, err
		}
		g.mu.Unlock()
		g.dedupes.Add(1)
		select {
		case <-c.done:
		case <-ctx.Done():
			var zero V
			return zero, Joined, ctx.Err()
		}
		if c.err == nil {
			g.hits.Add(1)
			return c.val, Joined, nil
		}
		if err := ctx.Err(); err != nil {
			var zero V
			return zero, Joined, err
		}
		// The leader failed: start over, so one joiner leads the retry.
	}
}

// lead runs compute for the flight c it registered under k, then stores a
// success, retires the flight and releases its joiners.
func (g *Group[K, V]) lead(ctx context.Context, k K, c *call[V], compute func(context.Context) (V, error)) (v V, err error) {
	g.misses.Add(1)
	c.err = errPanicked
	defer func() {
		g.mu.Lock()
		delete(g.flight, k)
		if c.err == nil {
			g.lockedPut(k, c.val)
		}
		g.mu.Unlock()
		close(c.done)
	}()
	v, err = compute(ctx)
	c.val, c.err = v, err
	return v, err
}

// GetBytes returns the value stored under the string form of b, counting a
// hit, without converting b to a string: the map lookup converts the key in
// place, so neither a hit nor a miss allocates. A miss is not counted — the
// caller falls through to Do, which counts it.
func GetBytes[V any](g *Group[string, V], b []byte) (V, bool) {
	var v V
	if g.items == nil {
		return v, false
	}
	g.mu.Lock()
	el, ok := g.items[string(b)]
	if ok {
		g.order.MoveToFront(el)
		v = el.Value.(*entry[string, V]).val
	}
	g.mu.Unlock()
	if ok {
		g.hits.Add(1)
	}
	return v, ok
}

// lockedPut stores v under k, evicting from the LRU tail; the caller holds
// mu. k is not stored yet: only a flight's leader stores, and a flight
// starts only for a key that is not stored.
func (g *Group[K, V]) lockedPut(k K, v V) {
	if g.items == nil {
		return
	}
	g.items[k] = g.order.PushFront(&entry[K, V]{key: k, val: v})
	for g.order.Len() > g.cap {
		oldest := g.order.Back()
		g.order.Remove(oldest)
		delete(g.items, oldest.Value.(*entry[K, V]).key)
		g.evictions.Add(1)
	}
}

// Stats returns a snapshot of the counters.
func (g *Group[K, V]) Stats() Stats {
	g.mu.Lock()
	entries := len(g.items)
	g.mu.Unlock()
	return Stats{
		Hits:      g.hits.Load(),
		Misses:    g.misses.Load(),
		Dedupes:   g.dedupes.Load(),
		Evictions: g.evictions.Load(),
		Entries:   entries,
	}
}
