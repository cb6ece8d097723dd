package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/optimize"
)

// Endpoint paths the workloads drive.
const (
	pathCompile  = "/v1/compile"
	pathOptimize = "/v1/optimize"
	pathSweep    = "/v1/sweep"
)

// planCacheDefault is vwsdkd's default plan-cache capacity (server.Config
// PlanCacheSize 0). hot-zipf's key set must exceed it so the LRU tail keeps
// falling through to the store; TestHotZipfKeySetExceedsPlanCache proves
// the excess against a live server rather than trusting this number.
const planCacheDefault = 128

// tinynetSpacePath is the committed design space whose frontier is pinned
// by internal/optimize/testdata/tinynet_frontier.golden.json.
const tinynetSpacePath = "examples/designspaces/tinynet.json"

// Request is one generated request: the wire form the daemon sees plus the
// resolved forms the checker and the traced replay need. The daemon never
// sees anything but Path and Body.
type Request struct {
	Seq  int
	Path string
	Body []byte

	// Compile requests: the resolved request, its canonical key and the
	// network reference exactly as sent.
	Compile *compile.Request
	Key     string
	NetRaw  json.RawMessage

	// Optimize requests: the parsed design space; Golden marks the
	// committed tinynet space.
	Space  *optimize.DesignSpace
	Golden bool

	// Sweep requests: one cell per (network, array, variant), in request
	// order.
	Cells []SweepCell
}

// SweepCell is one cell of a generated sweep grid.
type SweepCell struct {
	Req     compile.Request
	Variant string // wire name, echoed back in the summary line
}

// Stream hands out a workload's seeded request sequence. next is safe for
// concurrent use; the sequence depends only on the seed, never on which
// connection asks or when.
type Stream struct {
	mu  sync.Mutex
	gen func(seq int) Request
	seq int
}

func (s *Stream) next() Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.gen(s.seq)
	r.Seq = s.seq
	s.seq++
	return r
}

// Workload is one traffic mix.
type Workload struct {
	Name string
	// Fleet is the number of vwsdkd nodes the mix is sent to (round-robin).
	Fleet int
	// Prime lists compile requests written into the store(s) before the
	// daemon starts serving (hot-zipf, fleet-zipf).
	Prime []Request
	// Warm lists requests sent once over the socket after launch and before
	// the timed window (codesign); both count as set-up.
	Warm []Request
	// NewStream returns a fresh copy of the seeded request sequence, so the
	// socket run and the traced replay see identical inputs.
	NewStream func() *Stream
}

var workloadNames = []string{"hot-zipf", "cold-unique", "codesign", "fleet-zipf"}

// newWorkload builds the named workload from seed. root is the checkout
// root, where the committed design space lives.
func newWorkload(name string, seed uint64, root string) (*Workload, error) {
	switch name {
	case "hot-zipf":
		// Why: the daemon's dominant production path. A zipfian mix over
		// zoo networks × arrays × variants whose key set (216) exceeds the
		// 128-entry plan cache, all primed into the store: the plan-cache
		// hit path, net/http and the access log do almost all the work and
		// the LRU tail exercises store reads. Loads: server, model, compile
		// key, store reads. Bypasses: engine and core search entirely —
		// the no-change workload for any search optimization.
		u, err := zipfUniverse(seed)
		if err != nil {
			return nil, err
		}
		return &Workload{Name: name, Fleet: 1, Prime: u, NewStream: zipfStream(u, seed)}, nil
	case "fleet-zipf":
		// Why: the only workload that crosses the peer hop. The hot-zipf
		// mix round-robined over a 2-node -peers fleet with a store per
		// node, each store primed with the keys its node owns. Proxied
		// plans are not written to the non-owner's store, so the LRU tail
		// keeps crossing the hop. Loads: peer fetch and ring ownership,
		// plan validation of peer bytes, store reads. Bypasses: search.
		u, err := zipfUniverse(seed)
		if err != nil {
			return nil, err
		}
		return &Workload{Name: name, Fleet: 2, Prime: u, NewStream: zipfStream(u, seed)}, nil
	case "cold-unique":
		// Why: the compile path with every cache cold. Each request carries
		// a key the daemon has never seen: zoo networks on fresh array
		// geometries and seeded inline specs with grouped, depthwise and
		// strided layers, which take the pruned search path. Loads: core
		// search, engine inserts and evictions, chip schedule, energy,
		// encode, store write-behind. Bypasses: plan-cache hits, store
		// reads and peers.
		return &Workload{Name: name, Fleet: 1, NewStream: func() *Stream {
			return &Stream{gen: coldGen(seed)}
		}}, nil
	case "codesign":
		// Why: the co-design surface. A seeded sequence of /v1/optimize
		// design spaces and /v1/sweep grids over a bounded pool of networks
		// and arrays; the warm-up searches every (layer, array, variant)
		// cell once, so in the timed window engine memo reads and per-point
		// plan assembly dominate while core search is near zero — the
		// engine memo used as reads, where cold-unique uses it as inserts.
		// Loads: optimize, engine memo, chip, energy, sweep plan-cache hits.
		golden, err := os.ReadFile(filepath.Join(root, tinynetSpacePath))
		if err != nil {
			return nil, fmt.Errorf("codesign: %w", err)
		}
		warm, err := codesignWarm(golden)
		if err != nil {
			return nil, err
		}
		return &Workload{Name: name, Fleet: 1, Warm: warm, NewStream: func() *Stream {
			return &Stream{gen: codesignGen(seed, golden)}
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// rng returns the generator for one seed and stream purpose, so adding a
// draw to one stream never shifts another's.
func rng(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, purpose))
}

// zipfArrays are hot-zipf's array geometries: square and rectangular,
// small to large, including the paper's 512x512.
var zipfArrays = []core.Array{
	{Rows: 64, Cols: 64}, {Rows: 128, Cols: 128}, {Rows: 256, Cols: 256}, {Rows: 512, Cols: 512}, {Rows: 1024, Cols: 1024}, {Rows: 128, Cols: 256},
	{Rows: 256, Cols: 128}, {Rows: 256, Cols: 512}, {Rows: 512, Cols: 256}, {Rows: 512, Cols: 1024}, {Rows: 1024, Cols: 512}, {Rows: 96, Cols: 160},
}

var wireVariants = []string{"full", "square-tiled", "rect-full-channel"}

// zipfUniverse is the hot-zipf / fleet-zipf key set: 12 arrays × 3
// variants = 36 (array, variant) combinations in seed-shuffled popularity
// order, each with the 6 zoo networks — 216 keys, stored combination-major
// (key 6c+i is combination c, network i).
func zipfUniverse(seed uint64) ([]Request, error) {
	r := rng(seed, 1)
	nets := model.All()
	combos := make([][2]int, 0, len(zipfArrays)*len(wireVariants))
	for a := range zipfArrays {
		for v := range wireVariants {
			combos = append(combos, [2]int{a, v})
		}
	}
	r.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	out := make([]Request, 0, len(combos)*len(nets))
	for _, c := range combos {
		for _, n := range nets {
			req, err := compileRequest(n.Name, nil, zipfArrays[c[0]], wireVariants[c[1]])
			if err != nil {
				return nil, err
			}
			out = append(out, req)
		}
	}
	return out, nil
}

// zipfStream draws the combination's rank with P(k) ∝ (3+k)^-1.5 and the
// network uniformly. Every network, and so every response size, gets a
// sixth of the traffic whatever the seed; the seed moves only which arrays
// and variants are hot. About a tenth of the traffic falls on keys past
// the 128 the plan cache holds.
func zipfStream(u []Request, seed uint64) func() *Stream {
	return func() *Stream {
		r := rng(seed, 2)
		nets := len(model.All())
		z := rand.NewZipf(r, 1.5, 3, uint64(len(u)/nets-1))
		return &Stream{gen: func(int) Request { return u[int(z.Uint64())*nets+r.IntN(nets)] }}
	}
}

// coldGen yields requests whose keys never repeat: even sequence numbers
// are zoo networks (round-robin, so the mix is seed-independent) on a fresh
// array geometry, odd ones seeded inline specs on a fresh geometry. A
// geometry is never reused within a stream, which makes every key unique.
func coldGen(seed uint64) func(seq int) Request {
	r := rng(seed, 3)
	nets := model.All()
	used := map[core.Array]bool{}
	return func(seq int) Request {
		var a core.Array
		for {
			a = core.Array{Rows: 48 + r.IntN(977), Cols: 48 + r.IntN(977)}
			if !used[a] {
				used[a] = true
				break
			}
		}
		variant := wireVariants[r.IntN(len(wireVariants))]
		var req Request
		var err error
		if seq%2 == 0 {
			req, err = compileRequest(nets[(seq/2)%len(nets)].Name, nil, a, variant)
		} else {
			spec := randomSpec(r, seed, seq)
			req, err = compileRequest("", &spec, a, variant)
		}
		if err != nil {
			// The generator only emits valid layers; a failure is a bug here.
			panic(fmt.Sprintf("cold-unique request %d: %v", seq, err))
		}
		return req
	}
}

// randomSpec is a model.Random-style inline network of 3–8 layers (the
// count cycles with seq, so the mix's size does not depend on the seed):
// about a quarter grouped (some depthwise), a third strided, some padded.
func randomSpec(r *rand.Rand, seed uint64, seq int) model.Network {
	n := model.Network{Name: fmt.Sprintf("cold-%d-%d", seed, seq)}
	layers := 3 + (seq/2)%6
	for i := 0; i < layers; i++ {
		k := 1 + r.IntN(3)
		if r.IntN(4) == 0 {
			k = 5
		}
		ifm := k + 4 + r.IntN(52)
		l := core.Layer{
			Name: fmt.Sprintf("conv%d", i+1),
			IW:   ifm, IH: ifm, KW: k, KH: k,
			IC: 1 + r.IntN(128), OC: 1 + r.IntN(128),
		}
		switch r.IntN(8) {
		case 0: // depthwise
			c := 8 * (1 + r.IntN(16))
			l.IC, l.OC, l.Groups = c, c, c
		case 1: // grouped
			g := 2 + r.IntN(7)
			l.IC = g * (1 + r.IntN(16))
			l.OC = g * (1 + r.IntN(16))
			l.Groups = g
		}
		if r.IntN(3) == 0 {
			l.StrideW, l.StrideH = 2, 2
		}
		if k > 1 && r.IntN(2) == 0 {
			l.PadW, l.PadH = k/2, k/2
		}
		n.Layers = append(n.Layers, model.ConvLayer{Layer: l, Count: 1})
	}
	return n
}

// compileRequest builds a /v1/compile request for a zoo network (name) or
// an inline spec, resolving it exactly as the server would.
func compileRequest(zoo string, inline *model.Network, a core.Array, variant string) (Request, error) {
	var netRaw json.RawMessage
	var err error
	if inline != nil {
		netRaw, err = model.ToJSON(*inline)
		if err != nil {
			return Request{}, err
		}
		netRaw = json.RawMessage(trimNewline(netRaw))
	} else {
		netRaw, _ = json.Marshal(zoo)
	}
	body, err := json.Marshal(map[string]any{
		"network": netRaw,
		"array":   a.String(),
		"options": map[string]string{"variant": variant},
	})
	if err != nil {
		return Request{}, err
	}
	n, err := model.ResolveSpec(netRaw)
	if err != nil {
		return Request{}, err
	}
	v, err := parseVariant(variant)
	if err != nil {
		return Request{}, err
	}
	creq := compile.NewRequest(n, a, compile.Options{Variant: v})
	key, err := compile.Key(creq)
	if err != nil {
		return Request{}, err
	}
	return Request{Path: pathCompile, Body: body, Compile: &creq, Key: key, NetRaw: netRaw}, nil
}

func trimNewline(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == ' ') {
		b = b[:len(b)-1]
	}
	return b
}

func parseVariant(name string) (core.Variant, error) {
	switch name {
	case "", "full":
		return core.VariantFull, nil
	case "square-tiled":
		return core.VariantSquareTiled, nil
	case "rect-full-channel":
		return core.VariantRectFullChannel, nil
	}
	return 0, fmt.Errorf("unknown variant %q", name)
}

// codesignNets and codesignArrays bound the co-design pool, so the warm-up
// memoizes every (layer, array, variant) cell the timed window can ask for.
var (
	codesignNets   = []string{"VGG-13", "ResNet-18", "AlexNet", "MobileNet-V2"}
	codesignArrays = []core.Array{{Rows: 64, Cols: 64}, {Rows: 128, Cols: 128}, {Rows: 256, Cols: 256}, {Rows: 512, Cols: 512}, {Rows: 128, Cols: 256}, {Rows: 256, Cols: 512}}
)

// codesignWarm searches every pool cell once: one optimize per network over
// all arrays (full variant), the golden tinynet space, and one sweep over the
// whole grid with every variant.
func codesignWarm(golden []byte) ([]Request, error) {
	var out []Request
	for _, n := range codesignNets {
		req, err := optimizeRequest(n, codesignArrays, []int{1}, []bool{false}, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	g, err := goldenSpaceRequest(golden)
	if err != nil {
		return nil, err
	}
	out = append(out, g)
	s, err := sweepRequest(codesignNets, codesignArrays, wireVariants)
	if err != nil {
		return nil, err
	}
	return append(out, s), nil
}

// codesignGen cycles a fixed pattern of request kinds and sizes, so the
// mix's cost does not depend on the seed: every eighth request is the
// golden tinynet space, every fourth a sweep grid, the rest design spaces
// over the pool. The seed picks which networks, arrays and variants.
func codesignGen(seed uint64, golden []byte) func(seq int) Request {
	r := rng(seed, 4)
	return func(seq int) Request {
		var req Request
		var err error
		switch k := seq / 8; {
		case seq%8 == 0:
			req, err = goldenSpaceRequest(golden)
		case seq%4 == 3:
			nets := pick(r, codesignNets, 1+k%2)
			arrays := pick(r, codesignArrays, 2+k%3)
			variants := pick(r, wireVariants, 1+(k/2)%3)
			req, err = sweepRequest(nets, arrays, variants)
		default:
			j := k*5 + [8]int{0, 0, 1, 0, 2, 3, 4, 0}[seq%8] // index among design spaces
			net := codesignNets[j%len(codesignNets)]
			groups := 1 + (j/4)%2
			arrays := pick(r, codesignArrays, 2+(j/8)%(4-groups))
			chips := [][]int{{1}, {4}, {1, 4}}[j%3]
			gating := [][]bool{{false}, {true}, {false, true}}[(j/3)%3]
			req, err = optimizeRequest(net, arrays, chips, gating, groups)
		}
		if err != nil {
			panic(fmt.Sprintf("codesign request %d: %v", seq, err))
		}
		return req
	}
}

// pick draws n distinct elements of from in seeded order.
func pick[T any](r *rand.Rand, from []T, n int) []T {
	out := make([]T, 0, n)
	for _, i := range r.Perm(len(from))[:n] {
		out = append(out, from[i])
	}
	return out
}

func optimizeRequest(net string, arrays []core.Array, chips []int, gating []bool, groups int) (Request, error) {
	wireArrays := make([]string, len(arrays))
	for i, a := range arrays {
		wireArrays[i] = a.String()
	}
	body, err := json.Marshal(map[string]any{
		"name": fmt.Sprintf("%s-codesign", net), "network": net, "arrays": wireArrays,
		"chips": chips, "gating": gating, "layer_groups": groups,
	})
	if err != nil {
		return Request{}, err
	}
	space, err := optimize.FromJSON(body)
	if err != nil {
		return Request{}, err
	}
	return Request{Path: pathOptimize, Body: body, Space: &space}, nil
}

func goldenSpaceRequest(golden []byte) (Request, error) {
	space, err := optimize.FromJSON(golden)
	if err != nil {
		return Request{}, fmt.Errorf("%s: %w", tinynetSpacePath, err)
	}
	return Request{Path: pathOptimize, Body: golden, Space: &space, Golden: true}, nil
}

func sweepRequest(nets []string, arrays []core.Array, variants []string) (Request, error) {
	wireArrays := make([]string, len(arrays))
	for i, a := range arrays {
		wireArrays[i] = a.String()
	}
	body, err := json.Marshal(map[string]any{"networks": nets, "arrays": wireArrays, "variants": variants})
	if err != nil {
		return Request{}, err
	}
	var cells []SweepCell
	for _, name := range nets {
		n, err := model.ByName(name)
		if err != nil {
			return Request{}, err
		}
		for _, a := range arrays {
			for _, vn := range variants {
				v, err := parseVariant(vn)
				if err != nil {
					return Request{}, err
				}
				cells = append(cells, SweepCell{Req: compile.NewRequest(n, a, compile.Options{Variant: v}), Variant: vn})
			}
		}
	}
	return Request{Path: pathSweep, Body: body, Cells: cells}, nil
}
