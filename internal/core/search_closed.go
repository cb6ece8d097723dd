package core

import (
	"context"
	"fmt"
)

// This file implements the closed-form Algorithm 1 search that SearchVWSDK
// and SearchVariant(VariantFull) run for every layer shape. It exploits the
// structure of eq. 8: for a fixed window height h, every term of the cycle
// count is a step function of the window width w —
//
//	ICt  = min(floor(Rows/(w·h)), ICg)       (eq. 4) → AR = ceil(ICg/ICt)
//	OCt  = min(floor(Cols/(NwW·NwH)), OCg)   (eq. 6) → AC = ceil(OCg/OCt)
//	NPWw = ceil(OutW/NwW)                    (eq. 3)
//
// with NwW = floor((w-KW)/StrideW)+1 itself a step function of w, and
//
//	Cycles(h, w) = NPWw · NPWh · AR · AC · G
//
// (ICg = IC/G and OCg = OC/G are the per-group channel counts; dense layers
// have G == 1. Grouping only replaces the caps with per-group floors and
// multiplies by the w-independent constant G; DESIGN.md §7.) The cycle count
// is therefore constant over maximal runs of w on which (ICt, OCt, NPWw) are
// all constant — a "cost class". Because Algorithm 1 keeps the *first
// strictly better* candidate in its width-inner/height-outer scan, the
// winning candidate is always the first w of some class: every later member
// of the class has the same cycle count and cannot beat it under strict <.
//
// The search walks only class-start representatives, in scan order, and
// evaluates each one's cycle count with the integer arithmetic above — no
// Mapping is built, no cost model runs. It tracks the argmin under the same
// strict-< update and materializes only the single winning candidate through
// SweepVW at the end, so a search pays at most one cost-model call. Each
// step function contributes O(√) many breakpoints per row (the divisor-count
// structure of floor(N/x)), so a row costs O(√Rows + √Cols + √OutW) class
// evaluations instead of O(PaddedW). Infeasibility is monotone on both loop
// axes — once w·h > Rows or NwW·NwH > Cols no wider w recovers, and once the
// kernel-width window of a row is infeasible no taller row recovers — so
// both loops early-exit. Result (Best, Im2col, Evaluated, Swept) is pinned
// against the exhaustive sweep by TestPrunedMatchesExhaustiveZoo and
// FuzzSearchEquivalence. DESIGN.md §3 and §8 write up the derivation.

// SearchStats reports how a VW-SDK search arrived at its Result. It is
// diagnostic metadata — never part of Result, so serialized plans and the
// VGG-13 golden file are unaffected.
type SearchStats struct {
	// Path names the search implementation that ran. Every VW-SDK search
	// runs the closed form, so it is always PathClosedForm; the field is
	// kept for reports that attribute searches by path.
	Path string

	// CostModelCalls counts the candidate Mapping constructions (SweepVW
	// calls) the search performed, excluding the im2col seed: at most one,
	// to materialize the winner.
	CostModelCalls int
}

// PathClosedForm is the SearchStats.Path every VW-SDK search reports.
const PathClosedForm = "closed-form"

// SearchVWSDKInstrumented is SearchVWSDK plus the SearchStats describing how
// the result was obtained (how many cost-model evaluations it paid). The
// Result is identical to SearchVWSDK's.
func SearchVWSDKInstrumented(ctx context.Context, l Layer, a Array) (Result, SearchStats, error) {
	st := SearchStats{Path: PathClosedForm}
	res, err := searchVWSDKClosed(ctx, l.Normalized(), a, &st)
	return res, st, err
}

// searchVWSDKClosed is the closed-form Algorithm 1; l must be normalized.
// Result.Evaluated counts the cost classes evaluated; Result.Swept counts the
// feasible candidates the exhaustive sweep costs, computed analytically. The
// loop checks ctx once per candidate row (the cooperative cancellation
// checkpoint). st, which may be nil, counts the cost-model calls.
func searchVWSDKClosed(ctx context.Context, l Layer, a Array, st *SearchStats) (Result, error) {
	base, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: base, Im2col: base, Swept: sweptVWSDK(l, a)}
	W, H := l.PaddedW(), l.PaddedH()
	outW, outH := l.OutW(), l.OutH()
	icg, ocg, groups := l.ICg(), l.OCg(), int64(l.NumGroups())
	bestCycles := base.Cycles
	bestW, bestH := 0, 0 // 0 = the im2col seed is still winning
	for h := l.KH; h <= H; h++ {
		if err := checkpoint(ctx); err != nil {
			return Result{}, err
		}
		// Monotone early-exit on the height axis: the narrowest window of
		// this row is infeasible, and both causes only worsen with h.
		if l.KW*h > a.Rows {
			break
		}
		nwH := (h-l.KH)/l.StrideH + 1
		if nwH > a.Cols {
			break
		}
		npwH := ceilDiv(outH, nwH)
		w := l.KW
		if h == l.KH {
			w++ // the im2col seed covers the kernel-sized window
		}
		for w <= W {
			// Monotone early-exit on the width axis.
			if w*h > a.Rows {
				break
			}
			nwW := (w-l.KW)/l.StrideW + 1
			if nwW*nwH > a.Cols {
				break
			}
			// Eq. 8 for this class, in closed form — exactly SweepVW's
			// arithmetic, without building the Mapping.
			ict := min(a.Rows/(w*h), icg)
			oct := min(a.Cols/(nwW*nwH), ocg)
			npwW := ceilDiv(outW, nwW)
			cycles := int64(npwW*npwH) * int64(ceilDiv(icg, ict)) * int64(ceilDiv(ocg, oct)) * groups
			res.Evaluated++
			if cycles < bestCycles {
				bestCycles, bestW, bestH = cycles, w, h
			}
			// Class end: the largest w' for which ICt, OCt and ⌈OutW/NwW'⌉
			// are all unchanged. ICt stays while w'·h·ICt ≤ Rows (ict already
			// carries the per-group cap); OCt stays while NwW'·NwH·OCt ≤
			// Cols; ⌈OutW/NwW'⌉ stays while NwW' ≤ (OutW-1)/(npwW-1), and
			// for npwW == 1 never changes again (NwW ≤ OutW always).
			end := a.Rows / (h * ict)
			nwWEnd := a.Cols / (nwH * oct)
			if npwW > 1 {
				nwWEnd = min(nwWEnd, (outW-1)/(npwW-1))
			}
			// The largest w' whose window count along the width is nwWEnd;
			// the bounds are ≥ w by construction, max only guards a stall.
			// Any nwWEnd ≥ OutW reaches W, so KW+nwWEnd·StrideW−1 is only
			// formed below OutW, where it cannot wrap for huge strides.
			end = min(end, W)
			if nwWEnd < outW {
				end = min(end, l.KW+nwWEnd*l.StrideW-1)
			}
			w = max(end, w) + 1
		}
	}
	if bestW == 0 {
		return res, nil // nothing beat the im2col seed
	}
	// Materialize the argmin — the search's only cost-model call.
	m, err := SweepVW(l, a, Window{W: bestW, H: bestH})
	if err != nil {
		// Unreachable: the loop's feasibility checks are exactly SweepVW's.
		// Kept so a future cost-model change fails loudly.
		return Result{}, err
	}
	if st != nil {
		st.CostModelCalls++
	}
	if m.Cycles != bestCycles {
		// Unreachable: the arithmetic above mirrors SweepVW term by term.
		// A divergence means the closed form no longer matches the cost
		// model — fail loudly rather than serve a silently wrong plan.
		return Result{}, fmt.Errorf("core: closed-form search diverged from cost model for %s window %dx%d: computed %d cycles, cost model %d",
			l.Name, bestW, bestH, bestCycles, m.Cycles)
	}
	res.Best = m
	return res, nil
}

// sweptVWSDK counts, in O(PaddedH) time, the feasible candidates the
// exhaustive Algorithm 1 sweep costs: for each row the feasible widths form
// the contiguous range [KW, min(PaddedW, Rows/h, widest w with NwW·NwH ≤
// Cols)], minus the kernel-sized seed in the first row.
func sweptVWSDK(l Layer, a Array) int {
	n, outW := 0, l.OutW()
	for h := l.KH; h <= l.PaddedH(); h++ {
		if l.KW*h > a.Rows {
			break // no feasible width in this or any taller row
		}
		nwH := (h-l.KH)/l.StrideH + 1
		if nwH > a.Cols {
			break
		}
		// NwW ≤ Cols/(NwH) ⇔ w ≤ KW + floor(Cols/NwH)·StrideW − 1, which
		// is only formed below OutW (as in the class walk).
		wMax := min(a.Rows/h, l.PaddedW())
		if nw := a.Cols / nwH; nw < outW {
			wMax = min(wMax, l.KW+nw*l.StrideW-1)
		}
		n += wMax - l.KW + 1
		if h == l.KH {
			n-- // the kernel-sized seed is covered by im2col, never costed
		}
	}
	return n
}
