package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/server"
	"repro/internal/store"
)

// FleetSchema identifies the BENCH_fleet.json document layout; bump on
// incompatible changes so cross-PR tooling can detect them.
const FleetSchema = "vwsdk-fleet-bench/v1"

// Fleet workload shape. The plan-cache capacity is deliberately far below
// the key population: a single node must thrash its LRU, while the fleet's
// aggregate capacity (every node owning and caching its shard) plus the
// persistent store absorbs the same traffic. The zipf exponent models real
// compile-service traffic — a few hot networks and a long tail.
const (
	fleetNodes     = 3
	fleetKeys      = 24
	fleetRequests  = 600
	fleetPlanCache = 8
	fleetZipfS     = 1.2
	fleetZipfSeed  = 7
)

// FleetReport is the BENCH_fleet.json document: a zipfian compile mix
// driven round-robin over an in-process consistent-hash fleet, versus the
// same mix over one node with the same LRU — the number that justifies the
// peer tier is FleetHitRate strictly above BaselineHitRate.
type FleetReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Benchtime string `json:"benchtime"`

	// Workload shape, recorded so the committed snapshot documents what the
	// rates were measured over.
	Nodes         int     `json:"nodes"`
	Keys          int     `json:"keys"`
	Requests      int     `json:"requests"`
	PlanCacheSize int     `json:"plan_cache_size"`
	ZipfS         float64 `json:"zipf_s"`

	// FleetHitRate is the fraction of fleet requests served without a local
	// compilation (LRU hit, store hit, or proxied to the owner);
	// BaselineHitRate is the plain LRU hit rate of one node with the same
	// capacity over the same request sequence.
	FleetHitRate    float64 `json:"fleet_hit_rate"`
	BaselineHitRate float64 `json:"baseline_hit_rate"`

	// FleetCompiles counts compilations actually run anywhere in the fleet.
	// The two-tier cache's whole point is that it equals the number of
	// distinct keys the sequence touches: each key is compiled once, on its
	// owner, and served from caches everywhere else, while the thrashing
	// baseline recompiles every eviction.
	FleetCompiles    int64 `json:"fleet_compiles"`
	BaselineCompiles int64 `json:"baseline_compiles"`

	// Per-class request latencies inside the fleet run. Proxied requests
	// (X-Cache: peer) pay one hop to the owner plus response validation;
	// compute requests (X-Cache: miss) pay a full local search. For this
	// workload's sub-millisecond compiles the two are the same order of
	// magnitude — the fleet's win is the compile count and hit rate above,
	// not per-request latency — but proxied latency is still snapshotted and
	// gated so a protocol regression (extra hops, redundant validation)
	// shows up in CI.
	ProxiedRequests int   `json:"proxied_requests"`
	ProxiedP50Ns    int64 `json:"proxied_p50_ns"`
	ProxiedP99Ns    int64 `json:"proxied_p99_ns"`
	ComputeRequests int   `json:"compute_requests"`
	ComputeP50Ns    int64 `json:"compute_p50_ns"`
	ComputeP99Ns    int64 `json:"compute_p99_ns"`
	HitRequests     int   `json:"hit_requests"`
	HitP50Ns        int64 `json:"hit_p50_ns"`
}

// The key population: every zoo network on every array size — 24 distinct
// compile keys whose cold compiles cost 0.1–2ms each, so a ~0.1ms proxy hop
// to a warm owner is a real win while the whole benchmark stays fast.
var (
	fleetNetworks = []string{"VGG-13", "ResNet-18", "VGG-16", "AlexNet", "MobileNet-V2", "ResNeXt-50"}
	fleetArrays   = []string{"128x128", "256x256", "384x384", "512x512"}
)

// fleetBodies builds the wire bodies of the key population.
func fleetBodies() [][]byte {
	bodies := make([][]byte, 0, fleetKeys)
	for _, n := range fleetNetworks {
		for _, a := range fleetArrays {
			bodies = append(bodies, fmt.Appendf(nil, `{"network": %q, "array": %q}`, n, a))
		}
	}
	if len(bodies) != fleetKeys {
		panic("fleetKeys out of sync with the network/array grid")
	}
	return bodies
}

// fleetSequence is the shared request schedule: for each request, which key
// (zipf-distributed, deterministic seed) — the node it lands on is the
// request index modulo the fleet size (round-robin load balancing).
func fleetSequence() []int {
	r := rand.New(rand.NewSource(fleetZipfSeed))
	z := rand.NewZipf(r, fleetZipfS, 1, fleetKeys-1)
	seq := make([]int, fleetRequests)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}

// RunFleet executes the fleet benchmark and builds the report. The fleet is
// in-process: N servers joined by a peer.MemTransport loopback fabric (no
// sockets), each with a persistent store under a throwaway directory, so the
// run exercises the full two-tier path — LRU, store, proxy — deterministically.
func RunFleet(ctx context.Context, opts Options) (*FleetReport, error) {
	rep := &FleetReport{
		Schema:        FleetSchema,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Benchtime:     "default",
		Nodes:         fleetNodes,
		Keys:          fleetKeys,
		Requests:      fleetRequests,
		PlanCacheSize: fleetPlanCache,
		ZipfS:         fleetZipfS,
	}
	if opts.Once {
		// The workload is identical in CI smoke mode — it is already a
		// fixed-iteration run, and the rates must match the committed
		// snapshot — only the label differs.
		rep.Benchtime = "1x"
	}
	bodies := fleetBodies()
	seq := fleetSequence()

	// Baseline: one node, same LRU capacity, no peers, no store.
	_, sp := obs.Start(ctx, "fleet-baseline")
	base := server.New(server.Config{PlanCacheSize: fleetPlanCache})
	for _, k := range seq {
		rw := httptest.NewRecorder()
		base.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(bodies[k])))
		if rw.Code != http.StatusOK {
			sp.End()
			return nil, fmt.Errorf("bench: baseline request: status %d: %s", rw.Code, rw.Body.String())
		}
		if rw.Header().Get("X-Cache") == "hit" {
			rep.HitRequests++ // reused below; reset before the fleet run
		}
	}
	rep.BaselineHitRate = float64(rep.HitRequests) / float64(len(seq))
	rep.BaselineCompiles = int64(base.Stats().PlanCache.Misses)
	rep.HitRequests = 0
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bench: aborted: %w", err)
	}

	// Fleet: same sequence, round-robin over the nodes.
	storeRoot, err := os.MkdirTemp("", "vwsdk-fleet-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeRoot)
	addrs := make([]string, fleetNodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%d:80", i)
	}
	mt := peer.MemTransport{}
	servers := make([]*server.Server, fleetNodes)
	for i := range servers {
		ring, err := peer.NewRing(addrs[i], addrs)
		if err != nil {
			return nil, err
		}
		st, err := store.Open(fmt.Sprintf("%s/node-%d", storeRoot, i))
		if err != nil {
			return nil, err
		}
		servers[i] = server.New(server.Config{
			PlanCacheSize: fleetPlanCache,
			Store:         st,
			Peers:         peer.NewClient(ring, mt, 0),
		})
		mt[addrs[i]] = servers[i]
	}
	_, sp = obs.Start(ctx, "fleet-run")
	defer sp.End()
	var proxied, compute, hits []time.Duration
	for i, k := range seq {
		rw := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(bodies[k]))
		start := time.Now()
		servers[i%fleetNodes].ServeHTTP(rw, req)
		d := time.Since(start)
		if rw.Code != http.StatusOK {
			return nil, fmt.Errorf("bench: fleet request %d: status %d: %s", i, rw.Code, rw.Body.String())
		}
		switch rw.Header().Get("X-Cache") {
		case "peer":
			proxied = append(proxied, d)
		case "miss":
			compute = append(compute, d)
		default: // "hit" or "store": served from a local tier
			hits = append(hits, d)
		}
	}
	// Plan-cache misses count every singleflight leader, including ones
	// filled from the store or a peer; compilations actually run are the
	// misses minus those fills.
	for _, s := range servers {
		st := s.Stats()
		rep.FleetCompiles += int64(st.PlanCache.Misses)
		if st.Store != nil {
			rep.FleetCompiles -= int64(st.Store.Hits)
		}
		if st.Peer != nil {
			rep.FleetCompiles -= int64(st.Peer.Proxied)
		}
	}
	rep.ProxiedRequests = len(proxied)
	rep.ComputeRequests = len(compute)
	rep.HitRequests = len(hits)
	rep.FleetHitRate = float64(len(seq)-len(compute)) / float64(len(seq))
	rep.ProxiedP50Ns, rep.ProxiedP99Ns = pctls(proxied)
	rep.ComputeP50Ns, rep.ComputeP99Ns = pctls(compute)
	rep.HitP50Ns, _ = pctls(hits)
	return rep, nil
}

// pctls returns the p50 and p99 of durs (0, 0 when empty).
func pctls(durs []time.Duration) (p50, p99 int64) {
	if len(durs) == 0 {
		return 0, 0
	}
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	return sorted[n/2].Nanoseconds(), sorted[min(n-1, n*99/100)].Nanoseconds()
}
