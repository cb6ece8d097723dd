package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/optimize"
)

// References the checker compares against. None is produced by the code
// under test at run time: the goldens are committed files, the Table I
// total is the paper's, and per-layer cycles come from the exhaustive
// oracle (core.SearchVariantExhaustive), never from the pruned or
// closed-form search the daemon runs.
const (
	vgg13GoldenPath    = "internal/compile/testdata/vgg13_512_plan.golden.json"
	tinynetGoldenPath  = "internal/optimize/testdata/tinynet_frontier.golden.json"
	resnet18Table1VWSD = 4294 // ResNet-18 @ 512x512, total VW-SDK cycles (Table I)
)

// Checker validates daemon outputs. It is safe for concurrent use.
type Checker struct {
	vgg13Golden   []byte
	tinynetGolden []byte

	mu     sync.Mutex
	oracle map[oracleKey]int64
}

type oracleKey struct {
	l core.Layer
	a core.Array
	v core.Variant
}

func newChecker(root string) (*Checker, error) {
	vgg, err := os.ReadFile(filepath.Join(root, vgg13GoldenPath))
	if err != nil {
		return nil, err
	}
	tiny, err := os.ReadFile(filepath.Join(root, tinynetGoldenPath))
	if err != nil {
		return nil, err
	}
	return &Checker{vgg13Golden: vgg, tinynetGolden: tiny, oracle: map[oracleKey]int64{}}, nil
}

// exhaustiveCycles is the oracle: the brute-force sweep's best cycles for
// one layer, memoized per (layer, array, variant).
func (c *Checker) exhaustiveCycles(l core.Layer, a core.Array, v core.Variant) (int64, error) {
	k := oracleKey{l, a, v}
	c.mu.Lock()
	cyc, ok := c.oracle[k]
	c.mu.Unlock()
	if ok {
		return cyc, nil
	}
	r, err := core.SearchVariantExhaustive(l, a, v)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.oracle[k] = r.Best.Cycles
	c.mu.Unlock()
	return r.Best.Cycles, nil
}

// precompute fills the oracle for every cell of a sweep grid.
func (c *Checker) precompute(cells []SweepCell) error {
	for _, cell := range cells {
		for _, l := range cell.Req.Network.Layers {
			if _, err := c.exhaustiveCycles(l.Layer, cell.Req.Array, cell.Req.Options.Variant); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCompile validates a /v1/compile response: it must replay through
// compile.FromJSON (which cross-checks totals against layers) and answer
// the request that was sent.
func (c *Checker) checkCompile(req Request, body []byte) (*compile.NetworkPlan, error) {
	p, err := compile.FromJSON(body)
	if err != nil {
		return nil, err
	}
	want := req.Compile
	switch {
	case p.Network.Name != want.Network.Name:
		return nil, fmt.Errorf("plan for network %q, asked %q", p.Network.Name, want.Network.Name)
	case p.Array != want.Array:
		return nil, fmt.Errorf("plan for array %v, asked %v", p.Array, want.Array)
	case p.Options.Variant != want.Options.Variant:
		return nil, fmt.Errorf("plan for variant %v, asked %v", p.Options.Variant, want.Options.Variant)
	case len(p.Layers) != len(want.Network.Layers):
		return nil, fmt.Errorf("plan has %d layers, network %d", len(p.Layers), len(want.Network.Layers))
	}
	return p, nil
}

// checkOracle compares every layer's chosen cycles with the exhaustive
// search's optimum.
func (c *Checker) checkOracle(p *compile.NetworkPlan) error {
	for i, lp := range p.Layers {
		want, err := c.exhaustiveCycles(lp.Layer.Layer, p.Array, p.Options.Variant)
		if err != nil {
			return fmt.Errorf("oracle %s layer %d: %w", p.Network.Name, i, err)
		}
		if got := lp.Search.Best.Cycles; got != want {
			return fmt.Errorf("%s@%v layer %d (%s): served %d cycles, exhaustive optimum %d",
				p.Network.Name, p.Array, i, lp.Layer.Name, got, want)
		}
	}
	return nil
}

// checkVGG13Golden replays a served VGG-13@512 plan to its indented form
// and compares it with the committed golden.
func (c *Checker) checkVGG13Golden(body []byte) error {
	p, err := compile.FromJSON(body)
	if err != nil {
		return err
	}
	got, err := p.ToJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, c.vgg13Golden) {
		return fmt.Errorf("VGG-13@512 plan differs from %s", vgg13GoldenPath)
	}
	return nil
}

// checkTable1 checks the ResNet-18@512 total against the paper.
func checkTable1(body []byte) error {
	p, err := compile.FromJSON(body)
	if err != nil {
		return err
	}
	if p.Totals.Cycles != resnet18Table1VWSD {
		return fmt.Errorf("ResNet-18@512 totals %d VW-SDK cycles, Table I has %d", p.Totals.Cycles, resnet18Table1VWSD)
	}
	return nil
}

// checkOptimize validates a /v1/optimize NDJSON stream: one event per
// design point plus evictions, ending in a frontier that passes
// Frontier.Validate, evaluated every point, and — for the committed tinynet
// space — serializes byte-identically to the golden frontier.
func (c *Checker) checkOptimize(req Request, body []byte) (*optimize.Frontier, error) {
	var final *optimize.Frontier
	decided := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var line struct {
			Event    string             `json:"event"`
			Error    string             `json:"error"`
			Frontier *optimize.Frontier `json:"frontier"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("optimize stream: %w", err)
		}
		if final != nil {
			return nil, fmt.Errorf("optimize stream: data after the frontier line")
		}
		switch line.Event {
		case "admit", "reject":
			decided++
		case "evict":
		case "frontier":
			if line.Frontier == nil {
				return nil, fmt.Errorf("optimize stream: empty frontier line")
			}
			final = line.Frontier
		case "error":
			return nil, fmt.Errorf("optimize stream error: %s", line.Error)
		default:
			return nil, fmt.Errorf("optimize stream: unknown event %q", line.Event)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if final == nil {
		return nil, fmt.Errorf("optimize stream: no frontier line")
	}
	if err := final.Validate(); err != nil {
		return nil, err
	}
	points, err := req.Space.Points()
	if err != nil {
		return nil, err
	}
	if final.Evaluated != points || decided != points {
		return nil, fmt.Errorf("optimize: %d points evaluated, %d decided, space has %d", final.Evaluated, decided, points)
	}
	if req.Golden {
		got, err := final.ToJSON()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, c.tinynetGolden) {
			return nil, fmt.Errorf("tinynet frontier differs from %s", tinynetGoldenPath)
		}
	}
	return final, nil
}

// checkSweep validates a /v1/sweep NDJSON stream: exactly one error-free
// summary per requested cell (in any order), each with the network's total
// cycles equal to the exhaustive optimum summed over its layers.
func (c *Checker) checkSweep(req Request, body []byte) error {
	type cellID struct{ net, array, variant string }
	want := make(map[cellID]SweepCell, len(req.Cells))
	for _, cell := range req.Cells {
		want[cellID{cell.Req.Network.Name, cell.Req.Array.String(), cell.Variant}] = cell
	}
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var line struct {
			Network string `json:"network"`
			Array   string `json:"array"`
			Variant string `json:"variant"`
			Cycles  int64  `json:"cycles"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("sweep stream: %w", err)
		}
		if line.Error != "" {
			return fmt.Errorf("sweep cell %s@%s: %s", line.Network, line.Array, line.Error)
		}
		id := cellID{line.Network, line.Array, line.Variant}
		cell, ok := want[id]
		if !ok {
			return fmt.Errorf("sweep: unexpected or repeated cell %v", id)
		}
		delete(want, id)
		seen++
		var total int64
		for _, l := range cell.Req.Network.Layers {
			cyc, err := c.exhaustiveCycles(l.Layer, cell.Req.Array, cell.Req.Options.Variant)
			if err != nil {
				return err
			}
			total += cyc
		}
		if line.Cycles != total {
			return fmt.Errorf("sweep cell %v: %d cycles, exhaustive optimum %d", id, line.Cycles, total)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(want) != 0 {
		return fmt.Errorf("sweep: %d of %d cells missing", len(want), seen+len(want))
	}
	return nil
}
