package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/compile"
	"repro/internal/obs"
)

// This file is the server's observability surface: X-Request-ID assignment,
// the Prometheus /metrics registry, the per-compile phase histograms, and
// the ?trace=1 debug form of the compile handler. The conventions —
// vwsdk_-prefixed metric names as a stable contract, provenance stored on
// cache entries — are documented in DESIGN.md §9.

// ridPrefix distinguishes this process's generated request ids across
// restarts; ids are "<prefix>-<seq>" in hex.
var ridPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%08x", uint32(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}()

var ridSeq atomic.Uint64

// newRequestID mints a process-unique request id.
func newRequestID() string {
	return ridPrefix + "-" + strconv.FormatUint(ridSeq.Add(1), 16)
}

// requestID returns the client-supplied X-Request-Id when it is safe to echo
// (bounded, visible ASCII — it ends up in response headers, error bodies and
// log lines) and a generated id otherwise.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && validRequestID(id) {
		return id
	}
	return newRequestID()
}

func validRequestID(id string) bool {
	if len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return false
		}
	}
	return true
}

// compilePhases are the per-phase compile-time histogram series, matching
// the span names the compile pipeline records (DurationByName keys):
// admission wait, the per-layer pipeline stages, and plan serialization.
var compilePhases = []string{"queue-wait", "search", "schedule", "energy", "plan", "encode"}

// initMetrics builds the /metrics registry. Everything already counted
// elsewhere (request counters, cache stats, engine stats, job stats) is
// exposed through sample-at-scrape callbacks over those same atomics, so no
// counter is maintained twice; the histograms (request duration, compile
// phases) are the registry's own.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.metrics = r

	r.GaugeFunc("vwsdk_build_info",
		"Build metadata carried in labels; the value is always 1.",
		func() float64 { return 1 },
		obs.Label{Name: "version", Value: cliutil.Version()},
		obs.Label{Name: "revision", Value: cliutil.Revision()},
		obs.Label{Name: "goversion", Value: runtime.Version()})
	r.GaugeFunc("vwsdk_uptime_seconds", "Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
	r.GaugeFunc("vwsdk_goroutines", "Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })

	r.CounterFunc("vwsdk_http_requests_total", "HTTP requests received.",
		func() uint64 { return s.requests.Load() })
	r.GaugeFunc("vwsdk_http_in_flight", "HTTP requests currently being served.",
		func() float64 { return float64(s.inFlight.Load()) })
	r.GaugeFunc("vwsdk_http_queue_depth", "Compilations waiting for an admission slot.",
		func() float64 { return float64(s.queued.Load()) })
	r.CounterFunc("vwsdk_http_rejected_total", "Requests rejected 503 by the full admission queue.",
		func() uint64 { return s.rejected.Load() })
	s.httpHist = r.Histogram("vwsdk_http_request_duration_seconds",
		"End-to-end HTTP request latency.", obs.DurationBuckets)

	r.CounterFunc("vwsdk_plan_cache_hits_total", "Plan-cache hits (LRU hits plus coalesced joins).",
		func() uint64 { return s.plans.Stats().Hits })
	r.CounterFunc("vwsdk_plan_cache_misses_total", "Compilations actually run.",
		func() uint64 { return s.plans.Stats().Misses })
	r.CounterFunc("vwsdk_plan_cache_dedupes_total", "Requests coalesced onto an in-flight compilation.",
		func() uint64 { return s.plans.Stats().Dedupes })
	r.CounterFunc("vwsdk_plan_cache_evictions_total", "Plans evicted from the LRU.",
		func() uint64 { return s.plans.Stats().Evictions })
	r.GaugeFunc("vwsdk_plan_cache_entries", "Plans currently cached.",
		func() float64 { return float64(s.plans.Stats().Entries) })

	r.CounterFunc("vwsdk_engine_searches_total", "Layer searches served by the engine.",
		func() uint64 { return s.eng.Stats().Searches })
	r.CounterFunc("vwsdk_engine_cache_hits_total", "Searches answered from the result cache or a joined flight.",
		func() uint64 { return s.eng.Stats().CacheHits })
	r.CounterFunc("vwsdk_engine_cache_misses_total", "Searches that ran the underlying algorithm.",
		func() uint64 { return s.eng.Stats().CacheMisses })
	r.CounterFunc("vwsdk_engine_flight_dedupes_total", "Searches coalesced onto an identical in-flight search.",
		func() uint64 { return s.eng.Stats().FlightDedupes })
	r.CounterFunc("vwsdk_engine_evictions_total", "Search results evicted from the LRU.",
		func() uint64 { return s.eng.Stats().Evictions })
	r.CounterFunc("vwsdk_engine_candidates_costed_total", "Candidate windows handed to the cost model.",
		func() uint64 { return s.eng.Stats().CandidatesCosted })
	r.CounterFunc("vwsdk_engine_candidates_pruned_total", "Candidate windows skipped by the default cost-class walks.",
		func() uint64 { return s.eng.Stats().CandidatesPruned })
	r.GaugeFunc("vwsdk_engine_searches_in_flight", "Searches currently holding a worker-pool slot.",
		func() float64 { return float64(s.eng.Stats().InFlightSearches) })

	// The store and peer tiers register only when configured, so a
	// single-node, memory-only daemon's exposition is unchanged.
	if s.store != nil {
		r.CounterFunc("vwsdk_store_hits_total", "Plan-store loads that validated and were served.",
			func() uint64 { return s.store.StoreStats().Hits })
		r.CounterFunc("vwsdk_store_misses_total", "Plan-store lookups of absent keys.",
			func() uint64 { return s.store.StoreStats().Misses })
		r.CounterFunc("vwsdk_store_writes_total", "Plans appended to the store.",
			func() uint64 { return s.store.StoreStats().Writes })
		r.CounterFunc("vwsdk_store_corrupt_total", "Store entries that failed validation and were quarantined.",
			func() uint64 { return s.store.StoreStats().Corrupt })
	}
	if s.peers != nil {
		r.CounterFunc("vwsdk_peer_proxied_total", "Plan-cache misses filled from the owning peer.",
			func() uint64 { return s.peerProxied.Load() })
		r.CounterFunc("vwsdk_peer_failed_total", "Peer proxy attempts that fell back to local compute.",
			func() uint64 { return s.peerFailed.Load() })
	}

	r.CounterFunc("vwsdk_optimize_runs_total", "Pareto-frontier optimize searches started (streams and jobs).",
		func() uint64 { return s.optRuns.Load() })
	r.CounterFunc("vwsdk_optimize_points_evaluated_total", "Design points scored by optimize searches.",
		func() uint64 { return s.optPoints.Load() })
	r.CounterFunc("vwsdk_optimize_points_admitted_total", "Design points admitted to a Pareto frontier.",
		func() uint64 { return s.optAdmitted.Load() })
	r.CounterFunc("vwsdk_optimize_points_evicted_total", "Admitted points later evicted by a dominating admit.",
		func() uint64 { return s.optEvicted.Load() })
	r.CounterFunc("vwsdk_optimize_points_dominated_total", "Design points pruned as dominated (rejected on arrival plus evicted).",
		func() uint64 { return s.optRejected.Load() + s.optEvicted.Load() })

	r.CounterFunc("vwsdk_jobs_created_total", "Jobs accepted by POST /v1/jobs.",
		func() uint64 { return s.jobs.created.Load() })
	r.CounterFunc("vwsdk_jobs_cancelled_total", "Live jobs cancelled by DELETE.",
		func() uint64 { return s.jobs.cancels.Load() })
	r.CounterFunc("vwsdk_jobs_collected_total", "Finished jobs garbage-collected after their TTL.",
		func() uint64 { return s.jobs.collected.Load() })
	r.GaugeFunc("vwsdk_jobs_live", "Jobs currently queued or running.",
		func() float64 { return float64(s.jobs.stats().Live) })

	s.phaseHist = make(map[string]*obs.Histogram, len(compilePhases))
	for _, ph := range compilePhases {
		s.phaseHist[ph] = r.Histogram("vwsdk_compile_phase_seconds",
			"Compile-pipeline time per phase, summed per compilation (concurrent layers add up).",
			obs.DurationBuckets, obs.Label{Name: "phase", Value: ph})
	}
}

// observeCompile feeds one computed compilation's provenance into the
// per-phase histograms.
func (s *Server) observeCompile(prov *obs.Trace) {
	by := prov.DurationByName()
	for ph, h := range s.phaseHist {
		if d, ok := by[ph]; ok {
			h.Observe(d.Seconds())
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.metrics.WriteTo(w)
}

// handleCompileTraced is the ?trace=1 debug form of handleCompile: the same
// pipeline bracketed in a request trace (decode, lookup, handler phases),
// answered as JSON carrying the plan, the request's span tree, and the
// plan's compile provenance — for a cache hit, the provenance recorded when
// the plan was originally compiled. The Server-Timing header renders the
// request phases, so sum(phases) never exceeds its total.
func (s *Server) handleCompileTraced(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tr := obs.New("request")
	tctx := obs.NewContext(r.Context(), tr)

	_, sp := obs.Start(tctx, "decode")
	var body compileRequest
	herr := decodeJSONBody(w, r, s.maxBody, &body)
	var req compile.Request
	if herr == nil {
		req, herr = body.resolve()
	}
	sp.End()
	if herr != nil {
		writeError(w, herr)
		return
	}

	_, sp = obs.Start(tctx, "lookup")
	entry, err := s.cachedEntry(req)
	sp.End()
	if err != nil {
		writeError(w, errorf(http.StatusUnprocessableEntity, "%v", err))
		return
	}
	cached := entry != nil
	if entry == nil {
		key, err := compile.Key(req)
		if err != nil {
			writeError(w, errorf(http.StatusUnprocessableEntity, "%v", err))
			return
		}
		ctx, cancel := s.requestContext(r)
		defer cancel()
		_, hsp := obs.Start(tctx, "handler")
		entry, cached, err = s.compilePlan(ctx, key, req, false, isPeerHop(r))
		hsp.End()
		if err != nil {
			writeError(w, toHTTPError(err))
			return
		}
	}

	setPlanHeaders(w.Header(), cached, entry.source)
	w.Header().Set("Server-Timing", obs.ServerTiming(tr.Phases(), time.Since(start)))
	resp := map[string]any{
		"request_id": w.Header().Get("X-Request-Id"),
		"cached":     cached,
		"plan":       json.RawMessage(entry.data),
		"trace":      tr.Tree(),
	}
	if entry.trace != nil {
		resp["compile_trace"] = entry.trace
	}
	writeJSON(w, http.StatusOK, resp)
}
