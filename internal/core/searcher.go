package core

import (
	"context"
	"fmt"
)

// Method names one mapping search: a scheme and, for VW-SDK, an ablation
// variant. It is a small comparable value, usable directly in cache keys.
// The variant only counts for SchemeVWSDK; Normalized resets it for every
// other scheme, so the im2col, SMD and SDK searches have one Method each
// and Method{Scheme: SchemeVWSDK} (VariantFull) is Algorithm 1 itself.
type Method struct {
	Scheme  Scheme
	Variant Variant
}

// Normalized returns m with the variant reset to VariantFull unless the
// scheme is SchemeVWSDK, so methods that run the same search compare equal.
func (m Method) Normalized() Method {
	if m.Scheme != SchemeVWSDK {
		m.Variant = VariantFull
	}
	return m
}

// Searcher runs one mapping search. Three implementations exist: Serial
// (this package's default searches), Exhaustive (the brute-force reference
// oracle) and the concurrent, memoizing engine (internal/engine), which
// runs Serial under a cache and a worker pool. All three return the same
// Best and Im2col for every Method; Serial and the engine are bit-identical.
// Experiment generators, the compile pipeline and the CLIs accept a
// Searcher so callers choose the execution strategy.
//
// Search is context-first: the search loops run cooperative cancellation
// checkpoints (once per candidate row), so a cancelled or expired context
// actually stops the work instead of letting it run to completion. Pass
// context.Background() when cancellation is not needed.
type Searcher interface {
	Search(ctx context.Context, l Layer, a Array, m Method) (Result, error)
}

// Serial is the Searcher backed directly by this package's single-threaded
// default searches; it holds no state and the zero value is ready to use.
type Serial struct{}

// Search runs the method's default search: the im2col seed, the SMD or SDK
// baseline, the closed-form Algorithm 1 or a pruned ablation enumerator.
// The variant switch sits here rather than behind one more call because
// every frame on this chain holds a 464-byte Result, and goroutine stack
// growth is a measurable share of a cold compile.
func (Serial) Search(ctx context.Context, l Layer, a Array, m Method) (Result, error) {
	if m.Scheme != SchemeVWSDK {
		return searchBaseline(ctx, l, a, m.Scheme)
	}
	l = l.Normalized()
	switch m.Variant {
	case VariantFull:
		return searchVWSDKClosed(ctx, l, a, nil)
	case VariantSquareTiled:
		return searchSquareTiledPruned(ctx, l, a)
	case VariantRectFullChannel:
		return searchRectFullChannelPruned(ctx, l, a)
	default:
		return Result{}, fmt.Errorf("core: unknown variant %d", int(m.Variant))
	}
}

// Exhaustive is the Searcher backed by the brute-force sweeps
// (SearchVWSDKExhaustive / SearchVariantExhaustive): the reference oracle
// the default searches are differentially tested and benchmarked against.
// The im2col, SMD and SDK searches have no default/exhaustive split and are
// shared with Serial. The zero value is ready to use.
type Exhaustive struct{}

// Search runs the method's brute-force search.
func (Exhaustive) Search(ctx context.Context, l Layer, a Array, m Method) (Result, error) {
	if m.Scheme == SchemeVWSDK {
		return searchVariantExhaustive(ctx, l.Normalized(), a, m.Variant)
	}
	return searchBaseline(ctx, l, a, m.Scheme)
}

// searchBaseline runs the im2col seed or the SMD or SDK baseline search,
// which every Searcher shares.
func searchBaseline(ctx context.Context, l Layer, a Array, s Scheme) (Result, error) {
	switch s {
	case SchemeIm2col:
		if err := checkpoint(ctx); err != nil {
			return Result{}, err
		}
		base, err := Im2col(l, a)
		if err != nil {
			return Result{}, err
		}
		return Result{Best: base, Im2col: base}, nil
	case SchemeSMD:
		return SearchSMDContext(ctx, l, a)
	case SchemeSDK:
		return SearchSDKContext(ctx, l, a)
	default:
		return Result{}, fmt.Errorf("core: unknown scheme %v", s)
	}
}
