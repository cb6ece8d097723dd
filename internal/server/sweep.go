package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/model"
)

// sweepRequest is the POST /v1/sweep body (and the "sweep" member of a job
// submission): the cross product of networks × arrays × variants, each
// element in the same form the compile endpoint accepts. An empty variants
// list falls back to options.variant (or the scheme's default search) once
// per (network, array); variants other than "full" only make sense with the
// (default) vw scheme.
type sweepRequest struct {
	Networks []json.RawMessage `json:"networks"`
	Arrays   []json.RawMessage `json:"arrays"`
	Variants []string          `json:"variants"`
	Options  *requestOptions   `json:"options"`
}

// maxSweepCells bounds one sweep request's cross product.
const maxSweepCells = 4096

// sweepCell is one resolved (network, array, variant) combination — a
// compile.Request plus the wire-form variant name the summary echoes.
type sweepCell struct {
	req     compile.Request
	variant string
}

// sweepSummary is one NDJSON line of the sweep stream (and one entry of a
// sweep job's results): the cell identity plus its plan totals, or the
// per-cell error. Errors are per cell so one failing combination reports
// itself in-line instead of tearing down the whole stream.
type sweepSummary struct {
	Network        string  `json:"network"`
	Array          string  `json:"array"`
	Scheme         string  `json:"scheme"`
	Variant        string  `json:"variant,omitempty"`
	Cycles         int64   `json:"cycles,omitempty"`
	Im2colCycles   int64   `json:"im2col_cycles,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
	UtilizationPct float64 `json:"utilization_pct,omitempty"`
	Makespan       int64   `json:"makespan,omitempty"`
	EnergyTotalJ   float64 `json:"energy_total_j,omitempty"`
	Cached         bool    `json:"cached,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// cells resolves the request's cross product up front, so reference errors
// surface as one structured 422 before the stream commits to a 200 (or a
// job is accepted).
func (req *sweepRequest) cells() ([]sweepCell, *httpError) {
	if len(req.Networks) == 0 {
		return nil, errorf(http.StatusUnprocessableEntity, `missing "networks"`)
	}
	if len(req.Arrays) == 0 {
		return nil, errorf(http.StatusUnprocessableEntity, `missing "arrays"`)
	}
	base, herr := req.Options.compileOptions()
	if herr != nil {
		return nil, herr
	}
	// An explicit variants list wins; otherwise a single options.variant
	// applies to every cell (it must not be silently clobbered — the same
	// field is honored by /v1/compile), and the default is the full search.
	variants := req.Variants
	if len(variants) == 0 {
		if req.Options != nil && req.Options.Variant != "" {
			variants = []string{req.Options.Variant}
		} else {
			variants = []string{""}
		}
	}
	networks := make([]model.Network, len(req.Networks))
	for i, raw := range req.Networks {
		n, herr := resolveNetworkRef(raw)
		if herr != nil {
			return nil, herr
		}
		networks[i] = n
	}
	arrays := make([]core.Array, len(req.Arrays))
	for i, raw := range req.Arrays {
		a, herr := resolveArrayRef(raw)
		if herr != nil {
			return nil, herr
		}
		arrays[i] = a
	}
	total := len(networks) * len(arrays) * len(variants)
	if total > maxSweepCells {
		return nil, errorf(http.StatusUnprocessableEntity,
			"sweep of %d cells exceeds the %d-cell limit", total, maxSweepCells)
	}
	cells := make([]sweepCell, 0, total)
	for _, n := range networks {
		for _, a := range arrays {
			for _, vName := range variants {
				v, herr := parseVariant(vName)
				if herr != nil {
					return nil, herr
				}
				opts := base
				opts.Variant = v
				cells = append(cells, sweepCell{req: compile.NewRequest(n, a, opts), variant: vName})
			}
		}
	}
	return cells, nil
}

// runSweep is the one sweep executor behind both the synchronous NDJSON
// stream and sweep jobs: it fans cells over at most one worker per
// compilation slot, delivers each cell's summary to emit in completion
// order as soon as its compilation (or cache hit) finishes, and stops
// dispatching new cells once ctx ends — cells already past admission stop
// at their searches' next cancellation checkpoint and are not emitted.
// It returns ctx's error when the sweep was cut short, nil when every cell
// was delivered. emit is called from the caller's goroutine only.
func (s *Server) runSweep(ctx context.Context, cells []sweepCell, emit func(sweepSummary)) error {
	results := make(chan sweepSummary)
	go func() {
		workers := min(len(cells), cap(s.sem))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					// The dispatch checkpoint: no new cell starts after the
					// sweep's context ends.
					if i >= len(cells) || ctx.Err() != nil {
						return
					}
					sum, err := s.runCell(ctx, cells[i])
					if err != nil {
						// Context end mid-cell: the cell is incomplete, not
						// failed — nothing is emitted for it.
						return
					}
					results <- sum
				}
			}()
		}
		wg.Wait()
		close(results)
	}()
	delivered := 0
	for sum := range results {
		delivered++
		emit(sum)
	}
	if delivered == len(cells) {
		// Every cell was delivered: the sweep is complete even if the
		// context expired in the instant after the last cell finished.
		return nil
	}
	return ctx.Err()
}

// handleSweep streams one NDJSON summary per cell, in completion order.
// Sweeps are admitted through their own semaphore (one unit per stream,
// sized like the compilation pool; beyond it: 503) and then run through
// runSweep — the same machinery sweep jobs use — under the request's
// context, so a dropped connection stops scheduling cells and frees every
// slot. A sweep cut short by the per-request deadline appends one final
// error line so a still-connected client can tell the stream from a
// complete one.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if herr := decodeJSONBody(w, r, s.maxBody, &req); herr != nil {
		writeError(w, herr)
		return
	}
	cells, herr := req.cells()
	if herr != nil {
		writeError(w, herr)
		return
	}
	select {
	case s.sweepSem <- struct{}{}:
		defer func() { <-s.sweepSem }()
	default:
		s.rejected.Add(1)
		writeError(w, errorf(http.StatusServiceUnavailable,
			"server at capacity: all %d concurrent sweep streams are taken", cap(s.sweepSem)))
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Commit the headers now: the client sees the 200 as soon as the
		// stream is admitted, not when the first (possibly slow) cell lands.
		flusher.Flush()
	}

	lb := linePool.Get().(*lineBuf)
	defer linePool.Put(lb)
	broken := false // client gone: keep draining so cell goroutines can exit
	err := s.runSweep(ctx, cells, func(sum sweepSummary) {
		if broken {
			return
		}
		if lb.write(w, sum) != nil {
			broken = true
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	})
	if errors.Is(err, context.DeadlineExceeded) && !broken {
		lb.write(w, sweepSummary{Error: fmt.Sprintf("sweep aborted: %v", err)})
	}
}

// lineBuf encodes NDJSON lines through one reusable buffer/encoder pair, so
// a streaming sweep pays a per-stream — not per-line — encoder allocation.
type lineBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// linePool recycles lineBufs across sweep streams.
var linePool = sync.Pool{New: func() any {
	lb := &lineBuf{}
	lb.enc = json.NewEncoder(&lb.buf)
	return lb
}}

// write encodes v as one NDJSON line into the pooled buffer and writes it
// to w in a single Write call. Sweep summaries and optimize frontier events
// share this path.
func (lb *lineBuf) write(w io.Writer, v any) error {
	lb.buf.Reset()
	if err := lb.enc.Encode(v); err != nil {
		return err
	}
	_, err := w.Write(lb.buf.Bytes())
	return err
}

// runCell compiles one sweep cell through the plan cache (blocking
// admission — the cells belong to one already-admitted request or job) and
// summarizes its totals. A context end is returned as the error — the cell
// is incomplete, not failed; every other failure is folded into the
// summary's Error field so the sweep keeps going.
func (s *Server) runCell(ctx context.Context, c sweepCell) (sweepSummary, error) {
	sum := sweepSummary{
		Network: c.req.Network.Name,
		Array:   c.req.Array.String(),
		Scheme:  c.req.Options.Scheme.String(),
		Variant: c.variant,
	}
	key, err := compile.Key(c.req)
	if err != nil {
		sum.Error = err.Error()
		return sum, nil
	}
	entry, cached, err := s.compilePlan(ctx, key, c.req, true, false)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return sweepSummary{}, err
		}
		sum.Error = err.Error()
		return sum, nil
	}
	t := entry.totals
	sum.Cycles = t.Cycles
	sum.Im2colCycles = t.Im2colCycles
	sum.Speedup = t.Speedup
	sum.UtilizationPct = t.Utilization
	sum.Makespan = t.Makespan
	sum.EnergyTotalJ = t.Energy.EnergyTotal
	sum.Cached = cached
	return sum, nil
}
