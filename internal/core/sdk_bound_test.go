package core

import (
	"context"
	"reflect"
	"testing"
)

// fullSDKSweep is the SDK baseline's loop before its early exit: it costs
// every window up to the padded IFM and skips the infeasible ones.
func fullSDKSweep(l Layer, a Array) (Result, error) {
	l = l.Normalized()
	base, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: base, Im2col: base}
	for d := 1; ; d++ {
		pw := Window{W: l.KW + d*l.StrideW, H: l.KH + d*l.StrideH}
		if pw.W > l.PaddedW() || pw.H > l.PaddedH() {
			break
		}
		m, err := SDK(l, a, pw)
		if err != nil {
			return Result{}, err
		}
		res.Evaluated++
		if m.AR > base.AR || m.AC > base.AC {
			continue
		}
		if m.Cycles < res.Best.Cycles {
			res.Best = m
		}
	}
	res.Swept = res.Evaluated
	if res.Best.Scheme == SchemeIm2col {
		res.Best.Scheme = SchemeSDK
	}
	return res, nil
}

// TestSearchSDKEarlyExitMatchesFullSweep: breaking at the first infeasible
// window and counting Evaluated in O(1) leave every Result byte-identical to
// the full sweep, on the Table-I zoo and its exercisers.
func TestSearchSDKEarlyExitMatchesFullSweep(t *testing.T) {
	for _, a := range []Array{{64, 64}, {256, 256}, {512, 512}} {
		for _, l := range zooShapes() {
			want, err := fullSDKSweep(l, a)
			if err != nil {
				t.Fatalf("%s/%s: %v", l.Name, a, err)
			}
			got, err := SearchSDK(l, a)
			if err != nil {
				t.Fatalf("%s/%s: %v", l.Name, a, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: early exit changed the result\nfull  %+v\nearly %+v", l.Name, a, want, got)
			}
		}
	}
}

// checkpointCounter counts the search's per-window cancellation checks,
// that is the windows it costs.
type checkpointCounter struct {
	context.Context
	n int
}

func (c *checkpointCounter) Err() error { c.n++; return c.Context.Err() }

// TestSearchSDKWorkBoundedByArray pins the reproducer of an unbounded SDK
// sweep: one 3×3 layer on a 10⁷×10⁷ IFM with one channel each way used to
// cost every one of its ~10⁷ windows. The sweep now stops at the first
// window the 256x256 array rejects, while Evaluated still reports the full
// in-bounds count.
func TestSearchSDKWorkBoundedByArray(t *testing.T) {
	l := Layer{Name: "huge-ifm", IW: 10_000_000, IH: 10_000_000, KW: 3, KH: 3, IC: 1, OC: 1}
	ctx := &checkpointCounter{Context: context.Background()}
	res, err := SearchSDKContext(ctx, l, Array{Rows: 256, Cols: 256})
	if err != nil {
		t.Fatal(err)
	}
	// (3+d)² ≤ 256 rows holds up to d = 13, so d = 14 ends the sweep.
	if ctx.n != 14 {
		t.Errorf("windows costed = %d, want 14", ctx.n)
	}
	if want := 10_000_000 - 3; res.Evaluated != want || res.Swept != want {
		t.Errorf("Evaluated, Swept = %d, %d; want %d", res.Evaluated, res.Swept, want)
	}
	if res.Best.PW != (Window{W: 16, H: 16}) {
		t.Errorf("best window = %v, want 16x16", res.Best.PW)
	}
}
