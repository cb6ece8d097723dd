package core

import (
	"context"
	"math"
	"strings"
	"testing"
)

// boundedMethods are the searches Validate's size bound makes overflow-safe.
var boundedMethods = []Method{{Scheme: SchemeIm2col}, {Scheme: SchemeSMD}, {Scheme: SchemeVWSDK}}

// checkBoundedSearches runs every bounded search on an accepted layer and
// fails unless each returns positive cycles no worse than im2col and
// consistent candidate counts.
func checkBoundedSearches(t *testing.T, l Layer, a Array) {
	t.Helper()
	for _, m := range boundedMethods {
		res, err := Serial{}.Search(context.Background(), l, a, m)
		if err != nil {
			t.Fatalf("%v on %v %s: %v", m, l, a, err)
		}
		if res.Best.Cycles <= 0 || res.Im2col.Cycles <= 0 || res.Best.Cycles > res.Im2col.Cycles {
			t.Fatalf("%v on %v %s: cycles %d, im2col %d", m, l, a, res.Best.Cycles, res.Im2col.Cycles)
		}
		if res.Evaluated < 0 || res.Swept < res.Evaluated {
			t.Fatalf("%v on %v %s: evaluated %d of %d swept", m, l, a, res.Evaluated, res.Swept)
		}
	}
}

// TestValidateSizeBound pins the admission bound: the two layers whose
// counts used to wrap int64 are rejected by Validate and by every search,
// and layers just under and exactly at the bound are accepted and cost
// positive cycles.
func TestValidateSizeBound(t *testing.T) {
	a := Array{Rows: 256, Cols: 256}
	for _, tt := range []struct {
		name   string
		l      Layer
		reject string
	}{
		// VW-SDK used to pick window 22x9 at cycles=-9124022181257674752.
		{"huge 3x3", Layer{IW: 100000000, IH: 100000000, KW: 3, KH: 3, IC: 100000, OC: 100000}, "overflows int64"},
		// SMD used to fail with "SMD duplication -9223372036709301616".
		{"huge 1x1", Layer{IW: 3037000500, IH: 3037000500, KW: 1, KH: 1, IC: 1, OC: 1}, "overflows int64"},
		{"padded side", Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 1, OC: 1, PadW: math.MaxInt / 2}, "overflows int64"},
		{"just under", Layer{IW: 3037000499, IH: 3037000499, KW: 1, KH: 1, IC: 1, OC: 1}, ""},
		{"at the bound", Layer{IW: 1, IH: 1, KW: 1, KH: 1, IC: math.MaxInt, OC: 1}, ""},
		{"wide channels", Layer{IW: 4, IH: 4, KW: 3, KH: 3, IC: 1 << 28, OC: 1 << 28}, ""},
		// KW+NwW·StrideW−1 used to wrap, leaving Swept = -1.
		{"extreme stride", Layer{IW: 1 << 62, IH: 1, KW: 1, KH: 1, IC: 1, OC: 1, StrideW: 1 << 62}, ""},
	} {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.l.Validate()
			if tt.reject == "" {
				if err != nil {
					t.Fatalf("Validate rejected %v: %v", tt.l, err)
				}
				checkBoundedSearches(t, tt.l, a)
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.reject) {
				t.Fatalf("Validate(%v) = %v, want an error containing %q", tt.l, err, tt.reject)
			}
			for _, m := range boundedMethods {
				if res, err := (Serial{}).Search(context.Background(), tt.l, a, m); err == nil {
					t.Errorf("%v accepted the layer: cycles %d", m, res.Best.Cycles)
				}
			}
		})
	}
}

// FuzzLayerBounds draws extreme layer dimensions — sizes, strides and
// paddings of every magnitude up to 2^58 — and arrays up to 4096x4096.
// Whenever Validate accepts the layer, the im2col, SMD and VW-SDK searches
// must return positive cycles with Best no worse than im2col: no wrapped
// count may win an argmin. Run in CI's fuzz smoke step
// (go test -fuzz FuzzLayerBounds -fuzztime 10s ./internal/core).
func FuzzLayerBounds(f *testing.F) {
	// A draw v encodes the dimension (v>>6)>>(v&63): the low six bits pick a
	// magnitude, so small and huge dimensions are equally likely. x<<6
	// encodes x itself.
	dim := func(v uint64) int { return int(v >> 6 >> (v & 63)) }
	f.Add(uint64(100000000<<6), uint64(100000000<<6), uint64(3<<6), uint64(3<<6), uint64(100000<<6), uint64(100000<<6), uint64(1<<6), uint64(1<<6), uint64(0), uint64(0), uint16(255), uint16(255))
	f.Add(uint64(3037000499<<6), uint64(3037000499<<6), uint64(1<<6), uint64(1<<6), uint64(1<<6), uint64(1<<6), uint64(1<<6), uint64(1<<6), uint64(0), uint64(0), uint16(255), uint16(255))
	f.Add(uint64(1<<6), uint64(1<<6), uint64(1<<6), uint64(1<<6), uint64(1<<63), uint64(1<<6), uint64(1<<6), uint64(1<<6), uint64(0), uint64(0), uint16(4095), uint16(0))
	f.Add(uint64(1<<37), uint64(7<<6), uint64(1<<26), uint64(7<<6), uint64(1<<16), uint64(3<<6), uint64(1<<46), uint64(2<<6), uint64(1<<36), uint64(3<<6), uint16(511), uint16(63))
	f.Fuzz(func(t *testing.T, iw, ih, kw, kh, ic, oc, sw, sh, pw, ph uint64, rows, cols uint16) {
		l := Layer{
			Name: "fuzz",
			IW:   dim(iw), IH: dim(ih), KW: dim(kw), KH: dim(kh), IC: dim(ic), OC: dim(oc),
			StrideW: dim(sw), StrideH: dim(sh), PadW: dim(pw), PadH: dim(ph),
		}
		if l.Validate() != nil {
			t.Skip()
		}
		checkBoundedSearches(t, l, Array{Rows: int(rows%4096) + 1, Cols: int(cols%4096) + 1})
	})
}
