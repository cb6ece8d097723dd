package memo

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

var bg = context.Background()

// result is one Do call's return values, or the panic it raised.
type result[V any] struct {
	v     V
	out   Outcome
	err   error
	panic any
}

// startLeader runs g.Do(ctx, "k", ...) on its own goroutine and returns once
// that call leads a flight. Its compute blocks until release is called and
// then returns finish(ctx); the call's result arrives on res.
func startLeader[V any](g *Group[string, V], ctx context.Context, finish func(context.Context) (V, error)) (release func(), res <-chan result[V]) {
	in, gate := make(chan struct{}), make(chan struct{})
	ch := make(chan result[V], 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- result[V]{panic: p}
			}
		}()
		v, out, err := g.Do(ctx, "k", func(ctx context.Context) (V, error) {
			close(in)
			<-gate
			return finish(ctx)
		})
		ch <- result[V]{v: v, out: out, err: err}
	}()
	<-in
	return func() { close(gate) }, ch
}

// join runs g.Do(ctx, "k", compute) on its own goroutine and returns once
// that call has joined the running flight (its dedupe is counted).
func join[V any](g *Group[string, V], ctx context.Context, compute func(context.Context) (V, error)) <-chan result[V] {
	before := g.Stats().Dedupes
	ch := make(chan result[V], 1)
	go func() {
		v, out, err := g.Do(ctx, "k", compute)
		ch <- result[V]{v: v, out: out, err: err}
	}()
	for g.Stats().Dedupes == before {
		runtime.Gosched()
	}
	return ch
}

func value[V any](v V) func(context.Context) (V, error) {
	return func(context.Context) (V, error) { return v, nil }
}

func failure[V any](err error) func(context.Context) (V, error) {
	return func(context.Context) (v V, _ error) { return v, err }
}

// mustHit asserts that k is stored with value want.
func mustHit[V comparable](t *testing.T, g *Group[string, V], want V) {
	t.Helper()
	v, out, err := g.Do(bg, "k", func(context.Context) (v V, err error) {
		t.Error("stored key recomputed")
		return
	})
	if v != want || out != Hit || err != nil {
		t.Fatalf("follow-up = %v, %v, %v; want %v stored", v, out, err, want)
	}
}

func TestHitJoinCompute(t *testing.T) {
	g := New[string, int](4)
	v, out, err := g.Do(bg, "k", value(7))
	if v != 7 || out != Computed || err != nil {
		t.Fatalf("first Do = %d, %v, %v; want 7, Computed, nil", v, out, err)
	}
	mustHit(t, g, 7)
	if st := g.Stats(); st != (Stats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Errorf("stats = %+v", st)
	}
}

func TestJoinSharesLeaderValue(t *testing.T) {
	g := New[string, int](4)
	release, _ := startLeader(g, bg, value(9))
	joiner := join(g, bg, failure[int](errors.New("joiner computed")))
	release()
	if r := <-joiner; r.v != 9 || r.out != Joined || r.err != nil {
		t.Fatalf("joiner = %+v; want 9, Joined, nil", r)
	}
	if st := g.Stats(); st != (Stats{Hits: 1, Misses: 1, Dedupes: 1, Entries: 1}) {
		t.Errorf("stats = %+v", st)
	}
}

// TestCancelledLeaderJoinerComputesOwnValue: a joiner's leader is
// cancelled. The joiner, whose own context is live, must lead the retry and
// receive its own computed value — never a zero value with a nil error —
// and that value is stored.
func TestCancelledLeaderJoinerComputesOwnValue(t *testing.T) {
	g := New[string, int](4)
	leaderCtx, cancelLeader := context.WithCancel(bg)
	release, leader := startLeader(g, leaderCtx, func(ctx context.Context) (int, error) {
		return 0, ctx.Err()
	})
	joiner := join(g, bg, value(42))
	cancelLeader()
	release()
	if r := <-leader; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("leader = %+v, want context.Canceled", r)
	}
	if r := <-joiner; r.err != nil || r.v != 42 || r.out != Computed {
		t.Fatalf("joiner = %+v; want its own 42, Computed, nil", r)
	}
	mustHit(t, g, 42)
}

// TestLeaderErrorNotShared: the leader's error stays private to the leader;
// the joiner's successful retry is returned to it and stored.
func TestLeaderErrorNotShared(t *testing.T) {
	g := New[string, string](4)
	leaderErr := errors.New("leader's client hung up")
	release, leader := startLeader(g, bg, failure[string](leaderErr))
	joiner := join(g, bg, value("joiner bytes"))
	release()
	if r := <-leader; r.err != leaderErr {
		t.Fatalf("leader err = %v, want its own error", r.err)
	}
	if r := <-joiner; r.err != nil || r.out != Computed || r.v != "joiner bytes" {
		t.Fatalf("joiner = %+v; want its own computed value", r)
	}
	mustHit(t, g, "joiner bytes")
}

// TestJoinerCancelledWhileWaiting: a joiner whose own context ends returns
// ctx.Err() at once, and the leader still completes and stores its value.
func TestJoinerCancelledWhileWaiting(t *testing.T) {
	g := New[string, int](4)
	release, leader := startLeader(g, bg, value(5))
	ctx, cancel := context.WithCancel(bg)
	joiner := join(g, ctx, failure[int](errors.New("joiner computed")))
	cancel()
	if r := <-joiner; !errors.Is(r.err, context.Canceled) || r.out != Joined {
		t.Fatalf("joiner = %+v, want context.Canceled, Joined", r)
	}
	release()
	if r := <-leader; r.v != 5 || r.err != nil {
		t.Fatalf("leader = %+v, want 5", r)
	}
	mustHit(t, g, 5)
}

// TestFailedLeaderHerd: 1 leader and 32 joiners on one key, and the leader
// fails. The joiners retry as a herd of their own — one leads, the rest
// join or hit — so exactly 2 computes run in total, not one per joiner.
func TestFailedLeaderHerd(t *testing.T) {
	const joiners = 32
	g := New[string, int](4)
	var computes atomic.Int64
	release, leader := startLeader(g, bg, func(context.Context) (int, error) {
		computes.Add(1)
		return 0, errors.New("leader failed")
	})
	herd := make([]<-chan result[int], joiners)
	for i := range herd {
		herd[i] = join(g, bg, func(context.Context) (int, error) {
			computes.Add(1)
			return 3, nil
		})
	}
	release()
	if r := <-leader; r.err == nil {
		t.Fatal("leader succeeded")
	}
	for i, ch := range herd {
		if r := <-ch; r.err != nil || r.v != 3 {
			t.Fatalf("joiner %d = %+v; want 3, nil", i, r)
		}
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("%d computes ran, want 2 (the failed leader and one retry)", n)
	}
	if st := g.Stats(); st.Misses != 2 || st.Hits != joiners-1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 misses, %d hits, 1 entry", st, joiners-1)
	}
}

// TestPanickingComputeFailsFlight: a panic reaches the leader, and the
// flight fails like any error instead of stranding its joiners.
func TestPanickingComputeFailsFlight(t *testing.T) {
	g := New[string, int](4)
	release, leader := startLeader(g, bg, func(context.Context) (int, error) { panic("boom") })
	joiner := join(g, bg, value(1))
	release()
	if r := <-leader; r.panic != "boom" {
		t.Fatalf("leader = %+v, want the compute's panic", r)
	}
	if r := <-joiner; r.v != 1 || r.err != nil {
		t.Fatalf("joiner = %+v; want its own 1, nil", r)
	}
}

// TestCapacityZeroCoalescesOnly: with capacity 0 identical concurrent
// calls still share one compute, but nothing is retained afterwards.
func TestCapacityZeroCoalescesOnly(t *testing.T) {
	g := New[string, int](0)
	release, _ := startLeader(g, bg, value(4))
	joiner := join(g, bg, value(0))
	release()
	if r := <-joiner; r.v != 4 || r.out != Joined {
		t.Fatalf("joiner = %+v; want the leader's 4, Joined", r)
	}
	if _, out, _ := g.Do(bg, "k", value(4)); out != Computed {
		t.Errorf("later call outcome %v, want Computed (nothing stored)", out)
	}
	if _, ok := GetBytes(g, []byte("k")); ok {
		t.Error("GetBytes hit on a capacity-0 group")
	}
	if st := g.Stats(); st != (Stats{Hits: 1, Misses: 2, Dedupes: 1}) {
		t.Errorf("stats = %+v", st)
	}
}

// TestCapacityOneEvicts pins the LRU policy at capacity 1: a, b, a costs
// three computes and two evictions and leaves one entry.
func TestCapacityOneEvicts(t *testing.T) {
	g := New[string, int](1)
	for _, k := range []string{"a", "b", "a"} {
		if _, _, err := g.Do(bg, k, func(context.Context) (int, error) { return len(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := g.Stats(); st != (Stats{Misses: 3, Evictions: 2, Entries: 1}) {
		t.Errorf("stats = %+v, want 3 misses, 2 evictions, 1 entry", st)
	}
}

// TestBoundedLRU fills a small group past its bound: Entries never exceeds
// it, and the most recently used keys are the ones held.
func TestBoundedLRU(t *testing.T) {
	const bound = 4
	g := New[int, int](bound)
	square := func(i int) func(context.Context) (int, error) {
		return func(context.Context) (int, error) { return i * i, nil }
	}
	for i := range 3 * bound {
		for range 2 {
			if v, _, err := g.Do(bg, i, square(i)); err != nil || v != i*i {
				t.Fatalf("Do(%d) = %d, %v", i, v, err)
			}
		}
		if n := g.Stats().Entries; n > bound {
			t.Fatalf("after %d keys the group holds %d entries, bound %d", i+1, n, bound)
		}
	}
	// Touch the oldest held key, then insert one more: the touched key
	// survives and the next-oldest is evicted.
	oldest := 2 * bound
	if _, out, _ := g.Do(bg, oldest, square(oldest)); out != Hit {
		t.Fatalf("key %d not held", oldest)
	}
	g.Do(bg, 100, square(100))
	for _, c := range []struct {
		key  int
		want Outcome
	}{{oldest, Hit}, {oldest + 1, Computed}, {0, Computed}} {
		if _, out, _ := g.Do(bg, c.key, square(c.key)); out != c.want {
			t.Errorf("key %d outcome %v, want %v", c.key, out, c.want)
		}
	}
	if n := g.Stats().Entries; n != bound {
		t.Errorf("group holds %d entries, want %d", n, bound)
	}
}

// TestGetBytes: the byte-keyed lookup finds stored values, counts only
// hits, and allocates nothing on a hit or a miss.
func TestGetBytes(t *testing.T) {
	g := New[string, int](2)
	key := make([]byte, 300)
	for i := range key {
		key[i] = byte('a' + i%26)
	}
	if _, ok := GetBytes(g, key); ok {
		t.Fatal("hit on an empty group")
	}
	g.Do(bg, string(key), value(8))
	if v, ok := GetBytes(g, key); !ok || v != 8 {
		t.Fatalf("GetBytes = %d, %v; want 8, true", v, ok)
	}
	if st := g.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v; a GetBytes miss must not count", st)
	}
	miss := append([]byte(nil), key...)
	miss[0] = 'z'
	if n := testing.AllocsPerRun(100, func() { GetBytes(g, key) }); n != 0 {
		t.Errorf("GetBytes hit allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { GetBytes(g, miss) }); n != 0 {
		t.Errorf("GetBytes miss allocates %v/op", n)
	}
}

// TestConcurrentMixed drives a small group from many goroutines over more
// keys than it holds, with some computes failing; run it under -race. Every
// call must return its key's value or its own error, and every call is
// exactly one hit or one miss.
func TestConcurrentMixed(t *testing.T) {
	const workers, calls, keys = 8, 200, 12
	g := New[int, int](4)
	errOdd := errors.New("odd round")
	var wg sync.WaitGroup
	var failed atomic.Uint64
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range calls {
				k := (w*7 + i) % keys
				v, _, err := g.Do(bg, k, func(context.Context) (int, error) {
					if i%5 == 0 {
						return 0, errOdd
					}
					return 10 * k, nil
				})
				switch {
				case errors.Is(err, errOdd):
					failed.Add(1)
				case err != nil || v != 10*k:
					t.Errorf("Do(%d) = %d, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats()
	if st.Hits+st.Misses != workers*calls {
		t.Errorf("stats = %+v: hits+misses != %d calls", st, workers*calls)
	}
	if st.Entries > 4 || failed.Load() > st.Misses {
		t.Errorf("stats = %+v, %d failures", st, failed.Load())
	}
}
