package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/internal/chip"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/peer"
	"repro/internal/server"
	"repro/internal/store"
)

// The traced run replays the workload's seeded inputs in-process, after the
// socket run's daemons have stopped, in three phases:
//
//	A  Server.ServeHTTP on every request, no spans: the in-process rate.
//	B  the same loop with a span around each ServeHTTP call: the traced
//	   rate (A vs B is the tracing overhead) and server.handler_us.
//	C  every layer's public function called on the request's inputs, each
//	   call inside its own span; a function that calls another layer
//	   (Compiler.Compile, Client.Fetch) is timed as a whole.
//
// All spans are recorded from this file around calls into the layers; the
// program itself is not instrumented.

// callSites names each span's public function, so a later change can cite
// the exact call it moved.
var callSites = []struct{ span, site string }{
	{"server.handler", "server.(*Server).ServeHTTP"},
	{"server.cached_plan", "server.(*Server).CachedPlan"},
	{"model.resolve", "model.ResolveSpec"},
	{"compile.key", "compile.AppendKey"},
	{"compile.compile", "compile.(*Compiler).Compile"},
	{"compile.encode", "compile.(*NetworkPlan).Encode"},
	{"compile.validate", "compile.FromJSON"},
	{"engine.search", "engine.(*Engine).SearchVariant"},
	{"core.search", "core.SearchVWSDKInstrumented"},
	{"chip.schedule", "chip.ScheduleLayer"},
	{"energy.estimate", "energy.Model.Estimate"},
	{"store.get", "store.(*Store).GetPlan"},
	{"store.put", "store.(*Store).PutPlan + Flush"},
	{"peer.owner", "peer.(*Ring).Owner"},
	{"peer.fetch", "peer.(*Client).Fetch"},
	{"optimize.evaluate", "optimize.(*Optimizer).Evaluate"},
}

// tracer keeps spans in memory: per span name, the duration of every call.
type tracer struct {
	spans map[string][]time.Duration
}

func (t *tracer) span(name string, fn func()) {
	t0 := time.Now()
	fn()
	t.spans[name] = append(t.spans[name], time.Since(t0))
}

func (t *tracer) medianUs(name string) float64 {
	d := t.spans[name]
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / float64(time.Microsecond)
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func (t *tracer) totalUs(name string) float64 {
	var sum time.Duration
	for _, d := range t.spans[name] {
		sum += d
	}
	return float64(sum) / float64(time.Microsecond)
}

// traceResult is the traced run's output.
type traceResult struct {
	metrics    map[string]metric
	tr         *tracer
	requestsC  int
	rateA      float64
	rateB      float64
	notes      []string
	handlerP50 float64
}

// replayFleet is the in-process stand-in for the socket run's daemons:
// the same configuration (store per node, peers over an in-memory
// transport), primed and warmed the same way.
type replayFleet struct {
	srvs   []*server.Server
	stores []*store.Store
}

func newReplayFleet(ctx context.Context, wl *Workload, dir string) (*replayFleet, error) {
	addrs := make([]string, wl.Fleet)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node%d.replay:%d", i, 8080+i)
	}
	ring, err := peer.NewRing("", addrs)
	if err != nil {
		return nil, err
	}
	f := &replayFleet{}
	mem := peer.MemTransport{}
	for i := range addrs {
		st, err := store.Open(storeDir(dir, i))
		if err != nil {
			return nil, err
		}
		var prime []compile.Request
		for _, r := range wl.Prime {
			if owner, _ := ring.Owner(r.Key); wl.Fleet == 1 || owner == addrs[i] {
				prime = append(prime, *r.Compile)
			}
		}
		if len(prime) > 0 {
			// Offline priming, as vwsdkd -warm-only does it: a separate
			// server over the same store.
			if _, err := server.New(server.Config{Store: st}).Warm(ctx, prime, 0); err != nil {
				return nil, err
			}
			st.Flush()
		}
		cfg := server.Config{Engine: engine.New(), Store: st}
		if wl.Fleet > 1 {
			r, err := peer.NewRing(addrs[i], addrs)
			if err != nil {
				return nil, err
			}
			cfg.Peers = peer.NewClient(r, mem, 0)
		}
		s := server.New(cfg)
		mem[addrs[i]] = s
		f.srvs = append(f.srvs, s)
		f.stores = append(f.stores, st)
	}
	for _, r := range wl.Warm {
		if _, err := f.serve(r); err != nil {
			return nil, err
		}
	}
	for i, r := range wl.Prime {
		r.Seq = i
		if _, err := f.serve(r); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *replayFleet) close() {
	for _, st := range f.stores {
		st.Flush()
	}
}

// serve runs one request through ServeHTTP on its round-robin node.
func (f *replayFleet) serve(r Request) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	f.srvs[r.Seq%len(f.srvs)].ServeHTTP(rec, httptest.NewRequest("POST", r.Path, bytes.NewReader(r.Body)))
	if rec.Code != 200 {
		return rec, fmt.Errorf("%s: status %d: %.200s", r.Path, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

// unit is one compilation a request implies: the request itself for
// /v1/compile, each cell of a sweep, each candidate array of a design space.
type unit struct {
	req    compile.Request
	netRaw []byte
	body   []byte // the /v1/compile wire body
	key    string
}

func unitsOf(r Request) ([]unit, error) {
	switch r.Path {
	case pathCompile:
		return []unit{{*r.Compile, r.NetRaw, r.Body, r.Key}}, nil
	case pathSweep:
		out := make([]unit, 0, len(r.Cells))
		for _, c := range r.Cells {
			cr, err := compileRequest(c.Req.Network.Name, nil, c.Req.Array, c.Variant)
			if err != nil {
				return nil, err
			}
			out = append(out, unit{*cr.Compile, cr.NetRaw, cr.Body, cr.Key})
		}
		return out, nil
	case pathOptimize:
		out := make([]unit, 0, len(r.Space.Arrays))
		for _, a := range r.Space.Arrays {
			net := r.Space.Network
			var cr Request
			var err error
			if _, zerr := model.ByName(net.Name); zerr == nil {
				cr, err = compileRequest(net.Name, nil, a, "full")
			} else {
				cr, err = compileRequest("", &net, a, "full")
			}
			if err != nil {
				return nil, err
			}
			out = append(out, unit{*cr.Compile, cr.NetRaw, cr.Body, cr.Key})
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown path %q", r.Path)
}

// layerBench holds phase C's layer instances. Each is fresh when the phase
// starts and persists across its requests, so memo hits and misses follow
// the workload's own reuse.
type layerBench struct {
	tr        *tracer
	srv       *server.Server // phase B's node 0, for CachedPlan
	comp      *compile.Compiler
	eng       *engine.Engine // separate engine with the same call sequence
	opt       *optimize.Optimizer
	optEng    *engine.Engine
	side      *store.Store
	put       map[string]bool
	ring      *peer.Ring
	fetcher   *peer.Client
	em        energy.Model
	keyBuf    []byte
	planBytes []float64

	coreSearches, coreClosedForm, costModelCalls, classesCosted int
	points, optimizeRuns                                        int
}

func newLayerBench(dir string, tr *tracer, srv *server.Server) (*layerBench, error) {
	side, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	// A two-node ring seen from an observer: every key has a remote owner,
	// and both addresses lead to one in-process owner server.
	addrs := []string{"node0.side:1", "node1.side:2"}
	ring, err := peer.NewRing("", addrs)
	if err != nil {
		return nil, err
	}
	owner := server.New(server.Config{})
	optEng := engine.New()
	return &layerBench{
		tr: tr, srv: srv, comp: compile.New(engine.New()), eng: engine.New(),
		opt: optimize.New(compile.New(optEng)), optEng: optEng,
		side: side, put: map[string]bool{}, ring: ring,
		fetcher: peer.NewClient(ring, peer.MemTransport{addrs[0]: owner, addrs[1]: owner}, 0),
		em:      energy.Default(),
	}, nil
}

// request calls every layer on one request's inputs.
func (b *layerBench) request(ctx context.Context, r Request) error {
	units, err := unitsOf(r)
	if err != nil {
		return err
	}
	for _, u := range units {
		if err := b.unit(ctx, u); err != nil {
			return err
		}
	}
	space := r.Space
	if space == nil {
		// A compile request as a one-point design space.
		u := units[0]
		s := optimize.DesignSpace{Network: u.req.Network, Arrays: []core.Array{u.req.Array}}
		s.Normalize()
		space = &s
	}
	b.optimizeRuns++
	for _, d := range optimize.Designs(*space) {
		var err error
		b.tr.span("optimize.evaluate", func() { _, err = b.opt.Evaluate(ctx, *space, d) })
		if err != nil {
			return err
		}
		b.points++
	}
	return nil
}

func (b *layerBench) unit(ctx context.Context, u unit) error {
	var err error
	tr := b.tr
	tr.span("model.resolve", func() { _, err = model.ResolveSpec(u.netRaw) })
	if err != nil {
		return err
	}
	tr.span("compile.key", func() { b.keyBuf, err = compile.AppendKey(b.keyBuf[:0], u.req) })
	if err != nil {
		return err
	}
	tr.span("server.cached_plan", func() { _, err = b.srv.CachedPlan(io.Discard, u.req) })
	if err != nil {
		return err
	}
	for _, l := range u.req.Network.Layers {
		tr.span("engine.search", func() { _, err = b.eng.SearchVariant(ctx, l.Layer, u.req.Array, u.req.Options.Variant) })
		if err != nil {
			return err
		}
		if u.req.Options.Variant != core.VariantFull {
			continue // SearchVWSDKInstrumented is the full search only
		}
		var res core.Result
		var st core.SearchStats
		tr.span("core.search", func() { res, st, err = core.SearchVWSDKInstrumented(ctx, l.Layer, u.req.Array) })
		if err != nil {
			return err
		}
		b.coreSearches++
		b.costModelCalls += st.CostModelCalls
		b.classesCosted += res.Evaluated
		if st.Path == core.PathClosedForm {
			b.coreClosedForm++
		}
	}
	var plan *compile.NetworkPlan
	tr.span("compile.compile", func() { plan, err = b.comp.Compile(ctx, u.req) })
	if err != nil {
		return err
	}
	arrays := max(1, u.req.Options.Arrays)
	for _, lp := range plan.Layers {
		tr.span("chip.schedule", func() { _, err = chip.ScheduleLayer(lp.Search.Best, arrays) })
		if err != nil {
			return err
		}
		tr.span("energy.estimate", func() { _, err = b.em.Estimate(lp.Search.Best) })
		if err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	tr.span("compile.encode", func() { err = plan.Encode(&buf) })
	if err != nil {
		return err
	}
	data := buf.Bytes()
	b.planBytes = append(b.planBytes, float64(len(data)))
	tr.span("compile.validate", func() { _, err = compile.FromJSON(data) })
	if err != nil {
		return err
	}
	if !b.put[u.key] {
		b.put[u.key] = true
		tr.span("store.put", func() { b.side.PutPlan(u.key, data); b.side.Flush() })
	}
	var ok bool
	tr.span("store.get", func() { _, _, ok = b.side.GetPlan(u.key) })
	if !ok {
		return fmt.Errorf("side store lost key %q", u.key)
	}
	var owner string
	tr.span("peer.owner", func() { owner, _ = b.ring.Owner(u.key) })
	tr.span("peer.fetch", func() { _, err = b.fetcher.Fetch(ctx, owner, u.body) })
	return err
}

// runTrace runs phases A–C for a third of the window each (at least a
// second) and derives the per-layer metrics.
func runTrace(ctx context.Context, o options, wl *Workload, res *socketResult, chk *Checker) (*traceResult, error) {
	dir, err := os.MkdirTemp(o.work, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	f, err := newReplayFleet(ctx, wl, dir)
	if err != nil {
		return nil, fmt.Errorf("replay set-up: %w", err)
	}
	defer f.close()
	phase := time.Duration(max(1000, o.seconds*1000/3)) * time.Millisecond
	out := &traceResult{tr: &tracer{spans: map[string][]time.Duration{}}}

	// Phase A: untraced in-process rate.
	stream := wl.NewStream()
	n := 0
	start := time.Now()
	for time.Since(start) < phase {
		if _, err := f.serve(stream.next()); err != nil {
			return nil, err
		}
		n++
	}
	out.rateA = float64(n) / time.Since(start).Seconds()

	// Phase B: the same loop, each ServeHTTP inside a span. Optimize
	// replies are checked for their frontier size; the check's time is
	// left out of the traced rate.
	var frontier []float64
	var checking time.Duration
	n = 0
	start = time.Now()
	for time.Since(start) < phase {
		r := stream.next()
		var rec *httptest.ResponseRecorder
		var err error
		out.tr.span("server.handler", func() { rec, err = f.serve(r) })
		if err != nil {
			return nil, err
		}
		if r.Path == pathOptimize {
			t0 := time.Now()
			fr, err := chk.checkOptimize(r, rec.Body.Bytes())
			if err != nil {
				return nil, fmt.Errorf("in-process optimize #%d: %w", r.Seq, err)
			}
			frontier = append(frontier, float64(len(fr.Points)))
			checking += time.Since(t0)
		}
		n++
	}
	out.rateB = float64(n) / (time.Since(start) - checking).Seconds()
	out.handlerP50 = out.tr.medianUs("server.handler")

	// Phase C: every layer on the same seeded inputs, from the start.
	lb, err := newLayerBench(dir+"/side", out.tr, f.srvs[0])
	if err != nil {
		return nil, err
	}
	stream = wl.NewStream()
	start = time.Now()
	for out.requestsC == 0 || time.Since(start) < phase {
		if err := lb.request(ctx, stream.next()); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		out.requestsC++
	}
	lb.side.Flush()
	if len(frontier) == 0 {
		frontier = []float64{1} // compile requests: one-point spaces
		out.notes = append(out.notes, "optimize.frontier_size: compile requests evaluated as one-point design spaces")
	}
	out.metrics = layerMetrics(res, out, lb, median(frontier))
	out.notes = append(out.notes, absent(wl, res, out.metrics)...)
	return out, nil
}

// absent explains the per-layer metrics that read 0 because the workload
// never takes that layer's path in the timed window.
func absent(wl *Workload, res *socketResult, m map[string]metric) []string {
	var notes []string
	if m["server.queue_wait_us"].Value == 0 {
		notes = append(notes, fmt.Sprintf("server.queue_wait_us: no miss response waited for a compile slot (%d misses)", res.fillCounts[tierMiss]))
	}
	if m["engine.hit_ratio"].Value == 0 && m["engine.distinct_searches"].Value == 0 {
		notes = append(notes, "engine.hit_ratio: the daemons ran no search in the window")
	}
	if m["store.hit_ratio"].Value == 0 {
		notes = append(notes, "store.hit_ratio: no plan-cache miss was filled from the store in the window")
	}
	if wl.Fleet == 1 {
		notes = append(notes, "peer.proxied_share, peer.failed: single node, no peer tier (peer.fetch_us and peer.owner_ns are measured in-process)")
	}
	return notes
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics assembles the per-layer metrics: span medians from phases
// B and C, counters from the daemons across the socket run's window, and
// fill shares from the window's X-Cache headers.
func layerMetrics(res *socketResult, out *traceResult, lb *layerBench, frontier float64) map[string]metric {
	tr := out.tr
	us := func(name string) metric { return metric{tr.medianUs(name), "us"} }
	ns := func(name string) metric { return metric{tr.medianUs(name) * 1000, "ns"} }
	var d struct {
		planHits, planMisses, rejected                       float64
		searches, engHits, engMisses, evictions, dedupes     float64
		storeHits, storeMisses, corrupt, proxied, peerFailed float64
	}
	for i := range res.after {
		a, b := res.after[i], res.before[i]
		d.planHits += float64(a.PlanCache.Hits - b.PlanCache.Hits)
		d.planMisses += float64(a.PlanCache.Misses - b.PlanCache.Misses)
		d.rejected += float64(a.Server.Rejected - b.Server.Rejected)
		d.searches += float64(a.Engine.Searches - b.Engine.Searches)
		d.engHits += float64(a.Engine.CacheHits - b.Engine.CacheHits)
		d.engMisses += float64(a.Engine.CacheMisses - b.Engine.CacheMisses)
		d.evictions += float64(a.Engine.Evictions - b.Engine.Evictions)
		d.dedupes += float64(a.Engine.FlightDedupes - b.Engine.FlightDedupes)
		if a.Store != nil && b.Store != nil {
			d.storeHits += float64(a.Store.Hits - b.Store.Hits)
			d.storeMisses += float64(a.Store.Misses - b.Store.Misses)
			d.corrupt += float64(a.Store.Corrupt - b.Store.Corrupt)
		}
		if a.Peer != nil && b.Peer != nil {
			d.proxied += float64(a.Peer.Proxied - b.Peer.Proxied)
			d.peerFailed += float64(a.Peer.Failed - b.Peer.Failed)
		}
	}
	sent := float64(len(res.load.samples))
	var queue []float64
	for _, s := range res.load.samples {
		if s.queueWait >= 0 {
			queue = append(queue, s.queueWait*1000)
		}
	}
	// A mean, not a median: with a free slot most misses wait under the
	// header's 10 µs resolution, and the few that queue are the signal.
	queueWait := 0.0
	for _, q := range queue {
		queueWait += q / float64(len(queue))
	}
	socketP50 := percentile(res.latenciesMs(), 50) * 1000
	residual := socketP50 - out.handlerP50
	socketRPS := res.endToEnd()["throughput_rps"].Value
	fill := func(t int) metric { return metric{ratio(float64(res.fillCounts[t]), sent), "ratio"} }
	optSearches := float64(lb.optEng.Stats().Searches)
	optDistinct := float64(lb.optEng.Stats().CacheMisses)

	return map[string]metric{
		"residual.net_http_us":        {residual, "us"},
		"residual.share":              {ratio(residual, socketP50), "ratio"},
		"server.handler_us":           us("server.handler"),
		"server.cached_plan_ns":       ns("server.cached_plan"),
		"server.plan_cache_hit_ratio": {ratio(d.planHits, d.planHits+d.planMisses), "ratio"},
		"server.rejected":             {d.rejected, "count"},
		"server.queue_wait_us":        {queueWait, "us"},
		"model.resolve_us":            us("model.resolve"),
		"compile.key_ns":              ns("compile.key"),
		"compile.compile_us":          us("compile.compile"),
		"compile.encode_us":           us("compile.encode"),
		"compile.validate_us":         us("compile.validate"),
		"compile.plan_bytes":          {median(lb.planBytes), "bytes"},
		"engine.search_us":            us("engine.search"),
		"engine.hit_ratio":            {ratio(d.engHits, d.searches), "ratio"},
		"engine.distinct_searches":    {d.engMisses, "count"},
		"engine.evictions":            {d.evictions, "count"},
		"engine.flight_dedupes":       {d.dedupes, "count"},
		"core.search_us":              us("core.search"),
		"core.cost_model_calls":       {ratio(float64(lb.costModelCalls), float64(lb.coreSearches)), "count"},
		"core.closed_form_share":      {ratio(float64(lb.coreClosedForm), float64(lb.coreSearches)), "ratio"},
		"core.classes_costed":         {ratio(float64(lb.classesCosted), float64(lb.coreSearches)), "count"},
		"chip.schedule_us":            us("chip.schedule"),
		"energy.estimate_us":          us("energy.estimate"),
		"store.get_us":                us("store.get"),
		"store.put_us":                us("store.put"),
		"store.hit_ratio":             {ratio(d.storeHits, d.storeHits+d.storeMisses), "ratio"},
		"store.corrupt":               {d.corrupt, "count"},
		"peer.fetch_us":               us("peer.fetch"),
		"peer.owner_ns":               ns("peer.owner"),
		"peer.proxied_share":          {ratio(d.proxied, sent), "ratio"},
		"peer.failed":                 {d.peerFailed, "count"},
		"optimize.evaluate_us":        us("optimize.evaluate"),
		"optimize.points_per_run":     {ratio(float64(lb.points), float64(lb.optimizeRuns)), "count"},
		"optimize.frontier_size":      {frontier, "count"},
		"optimize.memo_reuse_ratio":   {ratio(optSearches, optDistinct), "ratio"},
		"fill.hit_share":              fill(tierHit),
		"fill.store_share":            fill(tierStore),
		"fill.peer_share":             fill(tierPeer),
		"fill.miss_share":             fill(tierMiss),
		"trace.socket_throughput_rps": {socketRPS, "1/s"},
		"trace.untraced_inproc_rps":   {out.rateA, "1/s"},
		"trace.traced_inproc_rps":     {out.rateB, "1/s"},
		"trace.overhead_share":        {1 - ratio(out.rateB, out.rateA), "ratio"},
	}
}

// attribution prints the per-layer table: each layer's call site, calls
// and median per call in phase C, its time per replayed request (spans are
// isolated calls, so each is its own self time), and the residual the
// socket adds over the in-process handler.
func (r *report) attribution(o options, res *socketResult, tr *traceResult) {
	socketP50 := percentile(res.latenciesMs(), 50) * 1000
	r.printf("attribution (workload %s, %d requests replayed in phase C, socket p50 %.1f us):\n", o.workload, tr.requestsC, socketP50)
	r.printf("  %-18s %-36s %10s %12s %14s\n", "layer", "call site", "calls/req", "p50 us/call", "self us/req")
	for _, cs := range callSites {
		calls := len(tr.tr.spans[cs.span])
		per := float64(calls) / float64(tr.requestsC)
		self := tr.tr.totalUs(cs.span) / float64(tr.requestsC)
		if cs.span == "server.handler" {
			per, self = 1, tr.handlerP50
		}
		r.printf("  %-18s %-36s %10.2f %12.2f %14.2f\n", cs.span, cs.site, per, tr.tr.medianUs(cs.span), self)
	}
	r.printf("  %-18s %-36s %10s %12s %14.2f\n", "residual", "socket p50 - server.handler p50", "", "", socketP50-tr.handlerP50)
	r.printf("tracing: socket %.1f req/s (untraced daemon), in-process %.1f req/s untraced, %.1f req/s traced\n",
		res.endToEnd()["throughput_rps"].Value, tr.rateA, tr.rateB)
	names := make([]string, 0, len(tr.metrics))
	for k := range tr.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.printf("layer %s %.6g %s\n", k, tr.metrics[k].Value, tr.metrics[k].Unit)
	}
	for _, n := range tr.notes {
		r.printf("note: %s\n", n)
	}
}
