// The asynchronous job surface: POST /v1/jobs accepts a compile, sweep or
// optimize request and returns a job snapshot immediately; GET /v1/jobs/{id}
// reports state and per-cell progress (monotone — cells only ever accumulate);
// DELETE /v1/jobs/{id} cancels the job's context, which stops cell dispatch
// and aborts in-flight searches at their next checkpoint. Jobs run through
// exactly the same executor as the synchronous endpoints (compilePlan and
// runSweep), so they share the plan cache, the singleflight coalescing and
// the compilation semaphore; a job waiting for capacity simply stays
// "queued". Finished jobs remain queryable for the configured TTL and are
// then garbage-collected on the next jobs-API access.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/optimize"
)

// Job states. A job is live in stateQueued and stateRunning and terminal in
// the other three; terminal states never change again.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// job is one tracked asynchronous request. The immutable identity fields
// are set at creation; everything below mu is owned by it.
type job struct {
	id      string
	kind    string // "compile", "sweep" or "optimize"
	created time.Time
	cancel  context.CancelFunc

	mu         sync.Mutex
	state      string
	errMsg     string
	finished   time.Time // terminal transition, for TTL garbage collection
	total      int       // cells in the request (1 for compile, design points for optimize)
	completed  int       // evaluated design points (optimize jobs)
	results    []sweepSummary
	plan       []byte // serialized NetworkPlan (compile jobs)
	planCached bool   // the plan came from the cache
	frontier   []byte // serialized optimize.Frontier (optimize jobs)
}

// jobSnapshot is the wire form of a job. Results and Plan are only
// populated by the detail endpoint (GET /v1/jobs/{id}); the listing and the
// creation response carry identity and progress only.
type jobSnapshot struct {
	ID             string          `json:"id"`
	Kind           string          `json:"kind"`
	State          string          `json:"state"`
	Created        time.Time       `json:"created"`
	CellsTotal     int             `json:"cells_total"`
	CellsCompleted int             `json:"cells_completed"`
	Error          string          `json:"error,omitempty"`
	Results        []sweepSummary  `json:"results,omitempty"`
	Plan           json.RawMessage `json:"plan,omitempty"`
	PlanCached     bool            `json:"plan_cached,omitempty"`
	Frontier       json.RawMessage `json:"frontier,omitempty"`
}

// snapshot captures the job's current state; withPayload additionally
// copies the accumulated results (sweep) or the serialized plan (compile).
// Progress is monotone: completed counts only ever grow, and the results
// slice is append-only, so two successive snapshots never disagree
// backwards.
func (j *job) snapshot(withPayload bool) jobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := jobSnapshot{
		ID:             j.id,
		Kind:           j.kind,
		State:          j.state,
		Created:        j.created,
		CellsTotal:     j.total,
		CellsCompleted: len(j.results),
		Error:          j.errMsg,
	}
	if j.kind == kindCompile && j.plan != nil {
		snap.CellsCompleted = 1
	}
	if j.kind == kindOptimize {
		snap.CellsCompleted = j.completed
	}
	if withPayload {
		snap.Results = append([]sweepSummary(nil), j.results...)
		snap.Plan = j.plan
		snap.PlanCached = j.planCached
		snap.Frontier = j.frontier
	}
	return snap
}

// setRunning moves a queued job to running (a no-op once terminal).
func (j *job) setRunning() {
	j.mu.Lock()
	if j.state == stateQueued {
		j.state = stateRunning
	}
	j.mu.Unlock()
}

// addResult appends one completed cell.
func (j *job) addResult(sum sweepSummary) {
	j.mu.Lock()
	j.results = append(j.results, sum)
	j.mu.Unlock()
}

// setPlan records a compile job's serialized plan.
func (j *job) setPlan(data []byte, cached bool) {
	j.mu.Lock()
	j.plan = data
	j.planCached = cached
	j.mu.Unlock()
}

// addProgress bumps an optimize job's evaluated-point counter (monotone,
// like sweep results).
func (j *job) addProgress() {
	j.mu.Lock()
	j.completed++
	j.mu.Unlock()
}

// setFrontier records an optimize job's serialized frontier.
func (j *job) setFrontier(data []byte) {
	j.mu.Lock()
	j.frontier = data
	j.mu.Unlock()
}

// finish moves the job to its terminal state: done on nil, cancelled on
// context.Canceled (a DELETE), failed otherwise (including a deadline from
// the per-request timeout). It also releases the job's context resources.
func (j *job) finish(err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = stateDone
	case errors.Is(err, context.Canceled):
		j.state = stateCancelled
		j.errMsg = err.Error()
	default:
		j.state = stateFailed
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel()
}

// terminalSince reports whether the job is terminal and, if so, when it got
// there.
func (j *job) terminalSince() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case stateDone, stateFailed, stateCancelled:
		return j.finished, true
	}
	return time.Time{}, false
}

// live reports whether the job is still queued or running.
func (j *job) live() bool {
	_, terminal := j.terminalSince()
	return !terminal
}

// jobSet owns the job table: registration, lookup, the live-jobs admission
// bound and TTL garbage collection (run on every jobs-API access rather
// than on a timer, so a Server needs no background goroutine and no
// Close method).
type jobSet struct {
	ttl     time.Duration
	maxLive int

	mu   sync.Mutex
	jobs map[string]*job
	seq  atomic.Uint64

	created   atomic.Uint64
	cancels   atomic.Uint64
	collected atomic.Uint64
}

func newJobSet(ttl time.Duration, maxLive int) *jobSet {
	return &jobSet{ttl: ttl, maxLive: maxLive, jobs: make(map[string]*job)}
}

// gcLocked drops terminal jobs older than the TTL; the caller holds mu.
func (js *jobSet) gcLocked(now time.Time) {
	for id, j := range js.jobs {
		if finished, terminal := j.terminalSince(); terminal && now.Sub(finished) >= js.ttl {
			delete(js.jobs, id)
			js.collected.Add(1)
		}
	}
}

// add garbage-collects, enforces the live-jobs bound and registers a new
// job under a fresh id.
func (js *jobSet) add(kind string, total int, cancel context.CancelFunc) (*job, *httpError) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.gcLocked(time.Now())
	live := 0
	for _, j := range js.jobs {
		if j.live() {
			live++
		}
	}
	if live >= js.maxLive {
		return nil, errorf(http.StatusServiceUnavailable,
			"server at capacity: %d jobs are already queued or running", live)
	}
	j := &job{
		id:      fmt.Sprintf("job-%d", js.seq.Add(1)),
		kind:    kind,
		created: time.Now(),
		cancel:  cancel,
		state:   stateQueued,
		total:   total,
	}
	js.jobs[j.id] = j
	js.created.Add(1)
	return j, nil
}

// get garbage-collects, then looks a job up.
func (js *jobSet) get(id string) (*job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.gcLocked(time.Now())
	j, ok := js.jobs[id]
	return j, ok
}

// list garbage-collects, then returns every remaining job.
func (js *jobSet) list() []*job {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.gcLocked(time.Now())
	out := make([]*job, 0, len(js.jobs))
	for _, j := range js.jobs {
		out = append(out, j)
	}
	return out
}

// JobStats are the job table's cumulative counters and current gauge.
type JobStats struct {
	// Created counts every accepted job; Cancelled counts DELETE requests
	// that reached a live job; Collected counts jobs dropped by the TTL
	// garbage collector.
	Created   uint64 `json:"created"`
	Cancelled uint64 `json:"cancelled"`
	Collected uint64 `json:"collected"`

	// Live is the current number of queued or running jobs.
	Live int `json:"live"`
}

func (js *jobSet) stats() JobStats {
	js.mu.Lock()
	live := 0
	for _, j := range js.jobs {
		if j.live() {
			live++
		}
	}
	js.mu.Unlock()
	return JobStats{
		Created:   js.created.Load(),
		Cancelled: js.cancels.Load(),
		Collected: js.collected.Load(),
		Live:      live,
	}
}

// Job kinds.
const (
	kindCompile  = "compile"
	kindSweep    = "sweep"
	kindOptimize = "optimize"
)

// jobRequest is the POST /v1/jobs body: exactly one of the three members,
// each in the same form its synchronous endpoint accepts (the optimize
// member is a raw design-space spec).
type jobRequest struct {
	Compile  *compileRequest  `json:"compile"`
	Sweep    *sweepRequest    `json:"sweep"`
	Optimize *json.RawMessage `json:"optimize"`
}

// jobContext derives a job's execution context: rooted in the process
// (context.Background(), NOT the submitting request — the whole point of a
// job is to outlive it), bounded by the configured per-request deadline,
// and cancellable by DELETE. Jobs are not drained by the daemon's graceful
// shutdown: a SIGTERM ends the process once open connections finish,
// abandoning whatever jobs are still running.
func (s *Server) jobContext() (context.Context, context.CancelFunc) {
	ctx := context.Background()
	if s.timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, s.timeout)
		ctx, cancelC := context.WithCancel(ctx)
		return ctx, func() { cancelC(); cancelT() }
	}
	return context.WithCancel(ctx)
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if herr := decodeJSONBody(w, r, s.maxBody, &req); herr != nil {
		writeError(w, herr)
		return
	}
	given := 0
	for _, set := range []bool{req.Compile != nil, req.Sweep != nil, req.Optimize != nil} {
		if set {
			given++
		}
	}
	switch {
	case given > 1:
		writeError(w, errorf(http.StatusUnprocessableEntity,
			`a job is exactly one of "compile", "sweep" or "optimize"`))
		return
	case req.Compile != nil:
		s.createCompileJob(w, req.Compile)
	case req.Sweep != nil:
		s.createSweepJob(w, req.Sweep)
	case req.Optimize != nil:
		s.createOptimizeJob(w, *req.Optimize)
	default:
		writeError(w, errorf(http.StatusUnprocessableEntity,
			`missing job body: give "compile", "sweep" or "optimize"`))
	}
}

// createCompileJob validates eagerly — a 422 at submission, not a failed
// job, for a request the synchronous endpoint would reject — then runs the
// compilation through the shared executor in the background.
func (s *Server) createCompileJob(w http.ResponseWriter, body *compileRequest) {
	creq, herr := body.resolve()
	if herr != nil {
		writeError(w, herr)
		return
	}
	key, err := compile.Key(creq)
	if err != nil {
		writeError(w, errorf(http.StatusUnprocessableEntity, "%v", err))
		return
	}
	ctx, cancel := s.jobContext()
	j, herr := s.jobs.add(kindCompile, 1, cancel)
	if herr != nil {
		cancel()
		writeError(w, herr)
		return
	}
	go func() {
		j.setRunning()
		entry, cached, err := s.compilePlan(ctx, key, creq, true, false)
		if err == nil {
			j.setPlan(entry.data, cached)
		}
		j.finish(err)
	}()
	writeJSON(w, http.StatusAccepted, map[string]any{"job": j.snapshot(false)})
}

func (s *Server) createSweepJob(w http.ResponseWriter, body *sweepRequest) {
	cells, herr := body.cells()
	if herr != nil {
		writeError(w, herr)
		return
	}
	ctx, cancel := s.jobContext()
	j, herr := s.jobs.add(kindSweep, len(cells), cancel)
	if herr != nil {
		cancel()
		writeError(w, herr)
		return
	}
	go func() {
		// A sweep job occupies one sweep-stream unit like a synchronous
		// sweep, but waits for it ("queued") instead of being rejected —
		// admission control for jobs is the live-jobs bound.
		select {
		case s.sweepSem <- struct{}{}:
		case <-ctx.Done():
			j.finish(ctx.Err())
			return
		}
		defer func() { <-s.sweepSem }()
		j.setRunning()
		j.finish(s.runSweep(ctx, cells, j.addResult))
	}()
	writeJSON(w, http.StatusAccepted, map[string]any{"job": j.snapshot(false)})
}

// createOptimizeJob validates the design space eagerly (a 422 at submission
// for a spec the synchronous endpoint would reject) and runs the search in
// the background through the same optimizer, counting progress per evaluated
// design point; the finished job's detail snapshot carries the serialized
// frontier.
func (s *Server) createOptimizeJob(w http.ResponseWriter, raw json.RawMessage) {
	space, herr := resolveOptimizeSpace(raw)
	if herr != nil {
		writeError(w, herr)
		return
	}
	points, err := space.Points()
	if err != nil {
		writeError(w, errorf(http.StatusUnprocessableEntity, "%v", err))
		return
	}
	ctx, cancel := s.jobContext()
	j, herr := s.jobs.add(kindOptimize, points, cancel)
	if herr != nil {
		cancel()
		writeError(w, herr)
		return
	}
	go func() {
		// Like a sweep job: one sweep-stream unit, waited for ("queued")
		// rather than rejected.
		select {
		case s.sweepSem <- struct{}{}:
		case <-ctx.Done():
			j.finish(ctx.Err())
			return
		}
		defer func() { <-s.sweepSem }()
		j.setRunning()
		s.optRuns.Add(1)
		f, err := s.opt.Run(ctx, space, func(e optimize.Event) {
			s.countEvent(e)
			if e.Kind == "admit" || e.Kind == "reject" {
				j.addProgress()
			}
		})
		if err == nil {
			var data []byte
			if data, err = f.ToJSON(); err == nil {
				j.setFrontier(data)
			}
		}
		j.finish(err)
	}()
	writeJSON(w, http.StatusAccepted, map[string]any{"job": j.snapshot(false)})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, errorf(http.StatusNotFound, "no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": j.snapshot(true)})
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, errorf(http.StatusNotFound, "no such job %q", r.PathValue("id")))
		return
	}
	if j.live() {
		s.jobs.cancels.Add(1)
	}
	// Cancelling is asynchronous: the runner observes the context and moves
	// the job to "cancelled" (idempotent on terminal jobs — their state no
	// longer changes). The response is the snapshot at this instant; clients
	// poll GET until the state is terminal.
	j.cancel()
	writeJSON(w, http.StatusOK, map[string]any{"job": j.snapshot(false)})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	snaps := make([]jobSnapshot, 0, len(jobs))
	for _, j := range jobs {
		snaps = append(snaps, j.snapshot(false))
	}
	// Creation order (ids are "job-N" with N unordered lexicographically
	// past 9, so sort on the timestamp and tie-break on the numeric id).
	sort.Slice(snaps, func(i, k int) bool {
		if !snaps[i].Created.Equal(snaps[k].Created) {
			return snaps[i].Created.Before(snaps[k].Created)
		}
		if len(snaps[i].ID) != len(snaps[k].ID) {
			return len(snaps[i].ID) < len(snaps[k].ID)
		}
		return snaps[i].ID < snaps[k].ID
	})
	writeJSON(w, http.StatusOK, map[string]any{"jobs": snaps})
}
