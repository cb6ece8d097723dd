// Command perfbench is the repository's end-to-end benchmark: it starts
// cmd/vwsdkd as deployed (default flags, access log on and written to a
// file, a plan store), drives one seeded workload over loopback sockets
// from closed-loop connections, checks every response, and prints every
// metric by name with its unit. With -trace 1 it also replays the same
// seeded inputs in-process, timing each layer's public function from this
// package, and prints the per-layer metrics and an attribution table
// instead of the end-to-end metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// perfbench/run.sh builds the daemon and this command from the checkout and
// runs it from the checkout root:
//
//	bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// Run shape. The slices give per-slice throughput and CPU figures whose
// median shrugs off a stall from a neighbour on a shared machine. Set-ups
// repeat before and after the window (setupRepeats at least, and until
// setupBudget is spent, each time), so their median spans the whole run.
const (
	setupRepeats   = 5
	setupMax       = 40
	setupBudget    = 2 * time.Second
	windowSlices   = 10
	oracleSample   = 6 // compile responses compared against the exhaustive oracle
	maxConnections = 8
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	daemon   string
	root     string
	work     string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "hot-zipf", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced in-process replay")
	fs.StringVar(&o.daemon, "daemon", ".bench_build/bin/vwsdkd", "vwsdkd binary built from this checkout")
	fs.StringVar(&o.root, "root", ".", "checkout root (goldens and the tinynet design space are read from it)")
	fs.StringVar(&o.work, "work", ".bench_build", "directory inside the checkout for run files (stores, access logs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	o.trace = trace == 1
	ctx := context.Background()

	wl, err := newWorkload(o.workload, o.seed, o.root)
	if err != nil {
		return err
	}
	chk, err := newChecker(o.root)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	res, err := runSocket(ctx, o, wl, chk)
	if err != nil {
		return err
	}
	out := &report{w: stdout}
	out.host(res)
	out.socket(o, wl, res)
	metrics := res.endToEnd()
	if o.trace {
		tr, err := runTrace(ctx, o, wl, res, chk)
		if err != nil {
			return err
		}
		out.attribution(o, res, tr)
		metrics = tr.metrics
	}
	return out.final(res, metrics)
}

// socketResult is one socket run: set-up, the timed window and the
// daemon-side counters across it.
type socketResult struct {
	setup      []float64 // seconds per set-up repeat
	load       loadResult
	before     []server.Stats
	after      []server.Stats
	peakRSSMB  float64
	conns      int
	checkErrs  []string // failed checks outside the window (verification, probes, oracle)
	checksRun  int
	fillCounts [numTiers]int
}

// runSocket sets the workload up several times (keeping the last fleet),
// verifies it, warms it, measures the timed window, runs the reference
// probes, times the set-up again and runs the oracle on the sampled bodies.
func runSocket(ctx context.Context, o options, wl *Workload, chk *Checker) (*socketResult, error) {
	res := &socketResult{conns: min(runtime.NumCPU(), maxConnections)}
	// The oracle for every sweep cell the co-design pool can draw is
	// computed before any daemon starts, so it never shares the CPUs with
	// the timed window.
	for _, r := range wl.Warm {
		if err := chk.precompute(r.Cells); err != nil {
			return nil, err
		}
	}
	client := newClient(res.conns)
	defer client.CloseIdleConnections()
	// Each set-up gets its own directory, all removed at the end, so no
	// set-up overlaps the file deletions of the one before it.
	runDir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	var fl *fleet
	defer func() {
		if fl != nil {
			fl.stop()
		}
	}()
	if fl, err = res.timeSetUps(ctx, o, wl, runDir, chk); err != nil {
		return nil, err
	}

	verify, err := res.verification(wl, fl, chk)
	if err != nil {
		return nil, err
	}
	stream := wl.NewStream()
	warmFor := time.Duration(max(1000, o.seconds*100)) * time.Millisecond
	warm := runLoad(ctx, loadConfig{fleet: fl, client: client, stream: stream, conns: res.conns, dur: warmFor, verify: verify})
	for _, e := range warm.errs {
		res.checkErrs = append(res.checkErrs, "warm-up: "+e)
	}

	for _, n := range fl.nodes {
		s, err := n.stats(client)
		if err != nil {
			return nil, err
		}
		res.before = append(res.before, s)
	}
	keep := func(r Request) bool {
		return r.Path == pathCompile && crc32.ChecksumIEEE(fmt.Appendf(nil, "%d/%d", o.seed, r.Seq))%64 == 0
	}
	res.load = runLoad(ctx, loadConfig{
		fleet: fl, client: client, stream: stream, conns: res.conns,
		dur: time.Duration(o.seconds) * time.Second, slices: windowSlices, verify: verify,
		keep: keep, keepMax: oracleSample,
	})
	for _, n := range fl.nodes {
		s, err := n.stats(client)
		if err != nil {
			return nil, err
		}
		res.after = append(res.after, s)
		rss, err := n.peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.peakRSSMB = max(res.peakRSSMB, rss)
	}
	for _, s := range res.load.samples {
		res.fillCounts[s.tier]++
	}
	res.probes(fl, chk)
	fl.stop()
	if fl, err = res.timeSetUps(ctx, o, wl, runDir, chk); err != nil {
		return nil, err
	}
	res.oracle(chk)
	return res, nil
}

// timeSetUps sets the workload up repeatedly, each time in a fresh
// directory under runDir, and records each launch-to-ready time. It returns
// the last fleet, still running; the earlier ones are stopped. Cheap
// set-ups (a bare daemon launch takes milliseconds) repeat more often, so
// their median is as steady as that of the slow primed ones.
func (res *socketResult) timeSetUps(ctx context.Context, o options, wl *Workload, runDir string, chk *Checker) (*fleet, error) {
	var fl *fleet
	var spent time.Duration
	for k := 0; k < setupMax && (k < setupRepeats || spent < setupBudget); k++ {
		if fl != nil {
			fl.stop()
		}
		dir := filepath.Join(runDir, fmt.Sprint(len(res.setup)))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if fl, err = setUp(ctx, o, wl, dir, chk); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		spent += time.Since(t0)
	}
	return fl, nil
}

// setUp is one set-up repeat: prime the store(s), launch the fleet and wait
// until it answers, then send the workload's warm requests.
func setUp(ctx context.Context, o options, wl *Workload, dir string, chk *Checker) (*fleet, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addrs, err := freePorts(wl.Fleet)
		if err != nil {
			return nil, err
		}
		if len(wl.Prime) > 0 {
			for i := range addrs {
				os.RemoveAll(storeDir(dir, i))
			}
			if err := primeStores(ctx, o.daemon, dir, addrs, wl.Prime); err != nil {
				return nil, err
			}
		}
		fl, err := startFleet(ctx, o.daemon, dir, addrs)
		if err != nil {
			// A port reserved by freePorts can be taken before the daemon
			// binds it; retry on fresh ports.
			lastErr = err
			continue
		}
		if err := warmUp(fl, wl, chk); err != nil {
			fl.stop()
			return nil, err
		}
		return fl, nil
	}
	return nil, lastErr
}

// warmUp sends the workload's warm requests once, checking each response.
func warmUp(fl *fleet, wl *Workload, chk *Checker) error {
	if len(wl.Warm) == 0 {
		return nil
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	for _, r := range wl.Warm {
		status, _, _, err := post(c, fl.nodes[0], r, &buf)
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
		}
		if err == nil {
			err = chk.check(r, buf.Bytes())
		}
		if err != nil {
			return fmt.Errorf("warm %s: %w", r.Path, err)
		}
	}
	return nil
}

// check is the full check of one response, by endpoint.
func (c *Checker) check(r Request, body []byte) error {
	switch r.Path {
	case pathCompile:
		_, err := c.checkCompile(r, body)
		return err
	case pathOptimize:
		_, err := c.checkOptimize(r, body)
		return err
	case pathSweep:
		return c.checkSweep(r, body)
	}
	return fmt.Errorf("unknown path %q", r.Path)
}

// verification returns the per-response check for the timed window. For
// the zipf workloads every key is fetched and fully checked once here,
// outside the window; the window then requires each response to be
// byte-identical to its key's checked reply, whichever tier served it.
// The other workloads are checked in full on every response.
func (res *socketResult) verification(wl *Workload, fl *fleet, chk *Checker) (func(Request, []byte) error, error) {
	if len(wl.Prime) == 0 {
		return chk.check, nil
	}
	refs := make(map[string][]byte, len(wl.Prime))
	c := newClient(1)
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	for i, r := range wl.Prime {
		status, _, _, err := post(c, fl.nodes[i%len(fl.nodes)], r, &buf)
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			_, err = chk.checkCompile(r, buf.Bytes())
		}
		res.checksRun++
		if err != nil {
			res.checkErrs = append(res.checkErrs, fmt.Sprintf("verify %s: %v", r.Key, err))
			continue
		}
		refs[r.Key] = bytes.Clone(buf.Bytes())
	}
	return func(r Request, body []byte) error {
		want, ok := refs[r.Key]
		if !ok {
			return errors.New("no verified reference for key")
		}
		if !bytes.Equal(body, want) {
			return errors.New("plan bytes differ from the verified reply for this key")
		}
		return nil
	}, nil
}

// probes checks the paper's and the repository's references against every
// node after the window: the VGG-13@512 plan golden and the ResNet-18@512
// Table I total.
func (res *socketResult) probes(fl *fleet, chk *Checker) {
	vgg, err1 := compileRequest("VGG-13", nil, core.Array{Rows: 512, Cols: 512}, "full")
	rn, err2 := compileRequest("ResNet-18", nil, core.Array{Rows: 512, Cols: 512}, "full")
	if err := errors.Join(err1, err2); err != nil {
		res.checkErrs = append(res.checkErrs, err.Error())
		return
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	for _, n := range fl.nodes {
		for _, p := range []struct {
			r     Request
			check func([]byte) error
		}{{vgg, chk.checkVGG13Golden}, {rn, checkTable1}} {
			res.checksRun++
			status, _, _, err := post(c, n, p.r, &buf)
			if err == nil && status != 200 {
				err = fmt.Errorf("status %d", status)
			}
			if err == nil {
				err = p.check(buf.Bytes())
			}
			if err != nil {
				res.checkErrs = append(res.checkErrs, fmt.Sprintf("probe %s on %s: %v", p.r.Compile.Network.Name, n.addr, err))
			}
		}
	}
}

// oracle compares a seeded sample of the window's compile responses,
// layer by layer, with the exhaustive search.
func (res *socketResult) oracle(chk *Checker) {
	for _, k := range res.load.kept {
		res.checksRun++
		p, err := chk.checkCompile(k.req, k.body)
		if err == nil {
			err = chk.checkOracle(p)
		}
		if err != nil {
			res.checkErrs = append(res.checkErrs, fmt.Sprintf("oracle #%d: %v", k.req.Seq, err))
		}
	}
}

// Window figures.

func (res *socketResult) succeeded() int {
	n := 0
	for _, s := range res.load.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// minTailSamples is the slice size below which a slice's p99 would rest
// on fewer than ten samples beyond it.
const minTailSamples = 1000

// sliceFigures returns, per slice between consecutive CPU marks, the
// throughput (req/s), daemon CPU per request (µs) and p99 latency (ms);
// p99 is nil when a slice holds fewer than minTailSamples requests.
func (res *socketResult) sliceFigures() (rps, cpu, p99 []float64) {
	marks := res.load.cpu
	lat := res.latenciesMs()
	tails := true
	for i := 1; i < len(marks); i++ {
		lo, hi := marks[i-1], marks[i]
		if i > 1 && hi.at-lo.at < (marks[1].at-marks[0].at)/2 {
			continue // the tail after the deadline, while the last requests drain
		}
		n := 0
		var in []float64
		for j, s := range res.load.samples {
			if s.done > lo.at && s.done <= hi.at {
				in = append(in, lat[j])
				if s.ok {
					n++
				}
			}
		}
		dt := (hi.at - lo.at).Seconds()
		if n == 0 || dt <= 0 {
			continue
		}
		rps = append(rps, float64(n)/dt)
		cpu = append(cpu, float64(hi.ticks-lo.ticks)*1e6/clockTicks/float64(n))
		tails = tails && len(in) >= minTailSamples
		p99 = append(p99, percentile(in, 99))
	}
	if !tails {
		p99 = nil
	}
	return rps, cpu, p99
}

// latenciesMs returns the window's latencies, failures as +Inf (a failed
// request misses any latency limit).
func (res *socketResult) latenciesMs() []float64 {
	out := make([]float64, len(res.load.samples))
	for i, s := range res.load.samples {
		out[i] = math.Inf(1)
		if s.ok {
			out[i] = float64(s.lat) / float64(time.Millisecond)
		}
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *socketResult) endToEnd() map[string]metric {
	rps, cpu, p99 := res.sliceFigures()
	lat := res.latenciesMs()
	// The median of per-slice p99s, like the other slice figures, shrugs
	// off a neighbour's burst; a window too slow for per-slice tails falls
	// back to the pooled p99.
	tail := percentile(lat, 99)
	if p99 != nil {
		tail = median(p99)
	}
	attempted := len(res.load.samples)
	return map[string]metric{
		"throughput_rps":        {median(rps), "1/s"},
		"latency_p50_ms":        {percentile(lat, 50), "ms"},
		"latency_p99_ms":        {tail, "ms"},
		"success_rate":          {float64(res.succeeded()) / float64(max(attempted, 1)), "ratio"},
		"server_cpu_us_per_req": {median(cpu), "us"},
		"peak_rss_mb":           {res.peakRSSMB, "MiB"},
		"setup_s":               {median(res.setup), "s"},
	}
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile (NaN for no samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// Output.

type report struct{ w io.Writer }

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.w, format, args...) }

// host prints the machine and the commit under test, as the measured
// daemon reports its build revision ("unknown" outside a git checkout).
func (r *report) host(res *socketResult) {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	r.printf("host: cpus=%d model=%q gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), model, runtime.GOMAXPROCS(0), runtime.Version(), res.before[0].Process.Revision)
}

func (r *report) socket(o options, wl *Workload, res *socketResult) {
	ok := res.succeeded()
	n := len(res.load.samples)
	r.printf("run: workload=%s seed=%d seconds=%d connections=%d nodes=%d sent=%d succeeded=%d failed=%d error_rate=%.6f\n",
		wl.Name, o.seed, o.seconds, res.conns, wl.Fleet, n, ok, n-ok, float64(n-ok)/float64(max(n, 1)))
	rps, cpu, p99 := res.sliceFigures()
	tail := fmt.Sprintf("median of %d per-slice p99s", len(p99))
	if p99 == nil {
		tail = "pooled (a slice held fewer than 1000 requests)"
	}
	r.printf("samples: latency n=%d (p50 pooled, p99 %s), throughput and cpu: median of %d slices, setup: median of %d\n",
		n, tail, len(rps), len(res.setup))
	r.printf("slices: throughput_rps %.0f\nslices: server_cpu_us_per_req %.0f\nslices: latency_p99_ms %.3f\nsetups: %.4f\n", rps, cpu, p99, res.setup)
	for i := range numTiers {
		if res.fillCounts[i] > 0 {
			r.printf("fill: %s=%d\n", tierNames[i], res.fillCounts[i])
		}
	}
	m := res.endToEnd()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.printf("metric %s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	for _, e := range res.load.errs {
		r.printf("error: %s\n", e)
	}
	for _, e := range res.checkErrs {
		r.printf("check failed: %s\n", e)
	}
	r.printf("checks outside the window: %d run, %d failed\n", res.checksRun, len(res.checkErrs))
}

func (r *report) final(res *socketResult, metrics map[string]metric) error {
	n := len(res.load.samples)
	failed := n - res.succeeded()
	correct := failed == 0 && len(res.checkErrs) == 0 && n > 0
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(n, 1), failed, metrics})
	if err != nil {
		return err
	}
	r.printf("%s\n", out)
	return nil
}
