package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// root is the checkout root as seen from this package's directory.
const root = ".."

// streamHash digests the first n requests of a workload's stream.
func streamHash(t *testing.T, name string, seed uint64, n int) string {
	t.Helper()
	wl, err := newWorkload(name, seed, root)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	s := wl.NewStream()
	for range n {
		r := s.next()
		fmt.Fprintf(h, "%s %d\n", r.Path, len(r.Body))
		h.Write(r.Body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestStreamIsSeeded pins each workload's request stream for seed 1: the
// same seed yields the same requests every time, a different seed does not.
// A change to a generator must update the recorded hash, which marks the
// benchmark's inputs as changed.
func TestStreamIsSeeded(t *testing.T) {
	recorded := map[string]string{
		"hot-zipf":    "aa5ace36e971b117",
		"cold-unique": "cc6b57a184cf5c27",
		"codesign":    "47cdf73074ec565f",
		"fleet-zipf":  "aa5ace36e971b117",
	}
	for _, name := range workloadNames {
		got := streamHash(t, name, 1, 300)
		if again := streamHash(t, name, 1, 300); again != got {
			t.Errorf("%s: seed 1 gave %s then %s", name, got, again)
		}
		if other := streamHash(t, name, 2, 300); other == got {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", name)
		}
		if got != recorded[name] {
			t.Errorf("%s: stream hash %s, recorded %s", name, got, recorded[name])
		}
	}
}

func TestColdUniqueNeverRepeatsAKey(t *testing.T) {
	wl, err := newWorkload("cold-unique", 7, root)
	if err != nil {
		t.Fatal(err)
	}
	s := wl.NewStream()
	seen := map[string]int{}
	for i := range 5000 {
		r := s.next()
		if j, dup := seen[r.Key]; dup {
			t.Fatalf("request %d repeats the key of request %d", i, j)
		}
		seen[r.Key] = i
	}
}

// TestHotZipfKeySetExceedsPlanCache compiles the whole key set on a server
// with the daemon's default plan cache and requires evictions, so the LRU
// tail must fall through to the store.
func TestHotZipfKeySetExceedsPlanCache(t *testing.T) {
	wl, err := newWorkload("hot-zipf", 1, root)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, r := range wl.Prime {
		keys[r.Key] = true
	}
	if len(keys) <= planCacheDefault {
		t.Fatalf("%d distinct keys, plan cache holds %d", len(keys), planCacheDefault)
	}
	srv := server.New(server.Config{})
	for _, r := range wl.Prime {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", r.Path, bytes.NewReader(r.Body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", r.Key, rec.Code, rec.Body)
		}
	}
	st := srv.Stats().PlanCache
	if st.Evictions == 0 || st.Entries >= len(keys) {
		t.Fatalf("plan cache kept %d of %d keys with %d evictions", st.Entries, len(keys), st.Evictions)
	}
}

// tamperer serves through a real server and corrupts every response body.
type tamperer struct {
	srv    *server.Server
	tamper func([]byte) []byte
}

func (t tamperer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	t.srv.ServeHTTP(rec, r)
	w.WriteHeader(rec.Code)
	w.Write(t.tamper(rec.Body.Bytes()))
}

// loadAgainst runs the closed loop for a moment against h and returns how
// many requests succeeded and failed.
func loadAgainst(t *testing.T, h http.Handler, stream *Stream, verify func(Request, []byte) error) (ok, failed int) {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	fl := &fleet{nodes: []*node{{addr: strings.TrimPrefix(ts.URL, "http://")}}}
	res := runLoad(context.Background(), loadConfig{
		fleet: fl, client: newClient(1), stream: stream, conns: 1, dur: 300 * time.Millisecond, verify: verify,
	})
	for _, s := range res.samples {
		if s.ok {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

func TestTamperedPlanIsAnError(t *testing.T) {
	chk, err := newChecker(root)
	if err != nil {
		t.Fatal(err)
	}
	r, err := compileRequest("VGG-13", nil, core.Array{Rows: 512, Cols: 512}, "full")
	if err != nil {
		t.Fatal(err)
	}
	stream := func() *Stream { return &Stream{gen: func(int) Request { return r }} }
	srv := server.New(server.Config{})
	if ok, failed := loadAgainst(t, srv, stream(), chk.check); ok == 0 || failed != 0 {
		t.Fatalf("honest server: %d ok, %d failed", ok, failed)
	}
	// One layer's cycles grow by a leading digit: valid JSON, wrong plan.
	bump := func(b []byte) []byte { return bytes.Replace(b, []byte(`"Cycles":`), []byte(`"Cycles":1`), 1) }
	if ok, failed := loadAgainst(t, tamperer{srv, bump}, stream(), chk.check); ok != 0 || failed == 0 {
		t.Fatalf("tampered plans: %d ok, %d failed", ok, failed)
	}
}

func TestTamperedFrontierIsAnError(t *testing.T) {
	chk, err := newChecker(root)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := newWorkload("codesign", 1, root)
	if err != nil {
		t.Fatal(err)
	}
	golden := wl.NewStream().next() // sequence 0 is the committed tinynet space
	if !golden.Golden {
		t.Fatal("codesign request 0 is not the golden space")
	}
	stream := func() *Stream { return &Stream{gen: func(int) Request { return golden }} }
	srv := server.New(server.Config{})
	if ok, failed := loadAgainst(t, srv, stream(), chk.check); ok == 0 || failed != 0 {
		t.Fatalf("honest server: %d ok, %d failed", ok, failed)
	}
	// The final frontier claims more evaluated points than the space has.
	inflate := func(b []byte) []byte {
		i := bytes.LastIndex(b, []byte(`"evaluated":`))
		if i < 0 {
			return b
		}
		return append(append(bytes.Clone(b[:i]), `"evaluated":9`...), b[i+len(`"evaluated":`):]...)
	}
	if ok, failed := loadAgainst(t, tamperer{srv, inflate}, stream(), chk.check); ok != 0 || failed == 0 {
		t.Fatalf("tampered frontiers: %d ok, %d failed", ok, failed)
	}
}
