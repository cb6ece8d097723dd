package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Fill tiers as reported by the daemon's X-Cache header.
const (
	tierHit = iota
	tierStore
	tierPeer
	tierMiss
	tierNone // no X-Cache (optimize and sweep streams)
	numTiers
)

var tierNames = [numTiers]string{"hit", "store", "peer", "miss", "none"}

func tierOf(h string) int {
	switch h {
	case "hit":
		return tierHit
	case "store":
		return tierStore
	case "peer":
		return tierPeer
	case "miss":
		return tierMiss
	}
	return tierNone
}

// sample is one completed request of the timed window.
type sample struct {
	done      time.Duration // completion time since the window opened
	lat       time.Duration // send to last response byte
	tier      int
	ok        bool
	queueWait float64 // ms, from Server-Timing on miss responses; -1 if absent
}

// loadResult is what one closed-loop phase measured.
type loadResult struct {
	samples []sample
	elapsed time.Duration
	errs    []string    // first few failure reasons
	kept    []keptReply // seeded sample of bodies, for checks outside the window
	cpu     []cpuMark   // daemon CPU at each slice boundary
}

type keptReply struct {
	req  Request
	body []byte
}

type cpuMark struct {
	at    time.Duration
	ticks int64
}

// loadConfig describes one closed-loop phase.
type loadConfig struct {
	fleet  *fleet
	client *http.Client
	stream *Stream
	conns  int
	dur    time.Duration
	slices int // CPU sampling slices; 0 disables sampling
	// verify checks one response body; a non-nil error fails the request.
	verify func(req Request, body []byte) error
	// keep reports whether to retain this request's body for checks made
	// after the window (the exhaustive oracle); at most keepMax are kept.
	keep    func(r Request) bool
	keepMax int
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}, Timeout: 60 * time.Second}
}

// post sends one request to a node and reads the whole body into buf.
func post(c *http.Client, n *node, r Request, buf *bytes.Buffer) (status int, xcache, timing string, err error) {
	resp, err := c.Post(n.url(r.Path), "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return 0, "", "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, "", "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("Server-Timing"), nil
}

// queueWaitMs extracts the queue-wait phase from a Server-Timing header.
func queueWaitMs(h string) float64 {
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if ok && name == "queue-wait" {
			if v, err := strconv.ParseFloat(dur, 64); err == nil {
				return v
			}
		}
	}
	return -1
}

// runLoad drives cfg.conns closed-loop connections for cfg.dur: each
// connection sends its next request only after the previous response is
// read completely, the way a toolchain waits for its plan. Requests go
// round-robin over the fleet by sequence number.
func runLoad(ctx context.Context, cfg loadConfig) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
	)
	start := time.Now()
	deadline := start.Add(cfg.dur)
	stopCPU := make(chan struct{})
	cpuDone := make(chan struct{})
	go func() {
		defer close(cpuDone)
		if cfg.slices == 0 {
			return
		}
		mark := func() {
			var total int64
			for _, n := range cfg.fleet.nodes {
				t, err := n.cpuTicks()
				if err != nil {
					return
				}
				total += t
			}
			res.cpu = append(res.cpu, cpuMark{at: time.Since(start), ticks: total})
		}
		mark()
		tick := time.NewTicker(cfg.dur / time.Duration(cfg.slices))
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				mark()
			case <-stopCPU:
				mark()
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for range cfg.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var local []sample
			for ctx.Err() == nil && time.Now().Before(deadline) {
				r := cfg.stream.next()
				n := cfg.fleet.nodes[r.Seq%len(cfg.fleet.nodes)]
				t0 := time.Now()
				status, xc, timing, err := post(cfg.client, n, r, &buf)
				t1 := time.Now()
				s := sample{done: t1.Sub(start), lat: t1.Sub(t0), tier: tierOf(xc), queueWait: -1}
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
				}
				if err == nil {
					err = cfg.verify(r, buf.Bytes())
				}
				if s.tier == tierMiss {
					s.queueWait = queueWaitMs(timing)
				}
				s.ok = err == nil
				local = append(local, s)
				if err != nil || (cfg.keep != nil && cfg.keep(r)) {
					mu.Lock()
					if err != nil && len(res.errs) < 5 {
						res.errs = append(res.errs, fmt.Sprintf("%s #%d: %v", r.Path, r.Seq, err))
					}
					if err == nil && len(res.kept) < cfg.keepMax {
						res.kept = append(res.kept, keptReply{req: r, body: bytes.Clone(buf.Bytes())})
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	close(stopCPU)
	<-cpuDone
	return res
}
