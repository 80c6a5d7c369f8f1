package server

// job.go defines the job lifecycle: the JSON request schema shared by the
// three job kinds, the state machine (queued → running → done | failed |
// canceled), and the planners that turn a validated request into a
// cancellable closure over the shared evaluation engines. Validation
// errors surface synchronously as 400s at submission; everything after
// submission is reported through the job record and its event topic.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/obs"
	"optima/internal/search"
)

// Job kinds.
const (
	// KindSweep evaluates every corner of the space at one condition and
	// returns all points — the exhaustive grid, served from the cache
	// tiers where warm.
	KindSweep = "sweep"
	// KindSearch runs the adaptive multi-fidelity explorer
	// (internal/search): behavioral screening rungs with successive
	// halving, optional golden promotion of the finalists.
	KindSearch = "search"
	// KindMatrix evaluates every corner at EVERY condition of the set and
	// returns the cross-condition robust summaries (worst-case excursions
	// with arg-worst conditions).
	KindMatrix = "matrix"
)

// Job states.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// Default axis specs — the same defaults as the `optima search` flags, so
// an empty request body explores the same space the CLI does.
const (
	defaultTau0Spec   = "0.16:0.28:100"
	defaultVDAC0Spec  = "0.3:0.5:3"
	defaultVDACFSSpec = "0.7:1.0:4"
)

// Request limits, both enforced before anything request-sized is allocated.
const (
	// maxRequestBytes caps a job request body; real specs are a few
	// hundred bytes.
	maxRequestBytes = 1 << 20
	// maxPlaneCells caps a job's (corner × condition) plane. The largest
	// plane a shipped workload evaluates is ~160k cells.
	maxPlaneCells = 1 << 20
)

// JobRequest is the body of POST /api/sessions/{sid}/jobs. Axis specs use
// the `optima search` syntax ("min:max:steps[:log]" or a comma list; τ0 in
// ns, voltages in V) and default to the CLI's search space. Conditions is
// a CORNER@<vdd>V@<temp>C list, defaulting to the server's -conditions
// set (nominal when unset).
type JobRequest struct {
	Kind    string `json:"kind"`
	Tau0    string `json:"tau0,omitempty"`
	VDAC0   string `json:"vdac0,omitempty"`
	VDACFS  string `json:"vdacfs,omitempty"`
	Backend string `json:"backend,omitempty"`
	// Conditions overrides the server's condition set for this job. A
	// sweep needs exactly one condition; matrix and search span the set.
	Conditions string `json:"conditions,omitempty"`

	// Search-only knobs (search.Options; zero values mean the defaults).
	Budget    int     `json:"budget,omitempty"`
	Rungs     int     `json:"rungs,omitempty"`
	Eta       float64 `json:"eta,omitempty"`
	Finalists int     `json:"finalists,omitempty"`
	Refine    bool    `json:"refine,omitempty"`
	// Promote re-evaluates the finalists on the golden transient backend.
	// Unlike the CLI (promote defaults on), the server defaults OFF:
	// golden time on a shared service is opt-in.
	Promote bool   `json:"promote,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
}

// SweepResult is a sweep job's result payload.
type SweepResult struct {
	Condition string              `json:"condition"`
	Points    []search.FrontPoint `json:"points"`
}

// MatrixResult is a matrix job's result payload: one cross-condition
// robust summary per corner, in grid order.
type MatrixResult struct {
	Conditions string               `json:"conditions"`
	Robust     []search.RobustPoint `json:"robust"`
}

// job is one submitted operation's record.
type job struct {
	id   string
	sid  string
	kind string

	mu       sync.Mutex
	state    string
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	stats    engine.Stats
	result   json.RawMessage
	span     obs.SpanID // root of the job's trace subtree; 0 until running
}

// JobStatus is the JSON view of a job.
type JobStatus struct {
	ID      string `json:"id"`
	Session string `json:"session"`
	Kind    string `json:"kind"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// Stats is the engine accounting attributed to this job (the engines'
	// counter delta over its run). With concurrent jobs from other
	// sessions the delta includes their overlap — read it as "work the
	// shared engines did while this job ran".
	Stats *engine.Stats `json:"stats,omitempty"`
	// Result is the kind-specific payload (SweepResult, MatrixResult, or
	// search.JSONReport), present once the job is done.
	Result json.RawMessage `json:"result,omitempty"`
}

func newJob(id, sid, kind string) *job {
	return &job{id: id, sid: sid, kind: kind, state: JobQueued, created: time.Now()}
}

func (j *job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = JobRunning
	j.started = time.Now()
}

func (j *job) finish(state string, result json.RawMessage, stats engine.Stats, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.finished = time.Now()
	j.result = result
	j.stats = stats
	if err != nil {
		j.errMsg = err.Error()
	}
}

func (j *job) setSpan(id obs.SpanID) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.span = id
}

// rootSpan returns the job's trace root (0 before the job started —
// obs.Subtree maps that to an empty trace).
func (j *job) rootSpan() obs.SpanID {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.span
}

func (j *job) status(withResult bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.id,
		Session: j.sid,
		Kind:    j.kind,
		State:   j.state,
		Error:   j.errMsg,
		Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
		stats := j.stats
		st.Stats = &stats
	}
	if withResult {
		st.Result = j.result
	}
	return st
}

// plan is a validated, ready-to-run job: a cancellable closure plus the
// engine accounting it should be attributed. run receives the job span
// so the engine batches (and search rungs) it triggers nest under the
// job in the trace.
type plan struct {
	run   func(ctx context.Context, parent obs.SpanID) (any, error)
	stats func() engine.Stats
}

// buildPlan validates a request and compiles it into a plan. Every error
// is a client error (HTTP 400).
func (s *Server) buildPlan(req JobRequest, jobID string) (plan, error) {
	orDefault := func(v, def string) string {
		if v == "" {
			return def
		}
		return v
	}
	space, err := search.ParseSpaceSpec(
		orDefault(req.Tau0, defaultTau0Spec),
		orDefault(req.VDAC0, defaultVDAC0Spec),
		orDefault(req.VDACFS, defaultVDACFSSpec))
	if err != nil {
		return plan{}, err
	}
	conds := s.exp.ConditionSet()
	if req.Conditions != "" {
		if conds, err = engine.ParseConditionSet(req.Conditions); err != nil {
			return plan{}, err
		}
	}
	// Size the plane from the axis specs alone: materializing it first
	// (Space.Configs) is exactly the allocation the limit prevents. The
	// product is taken in float64 so huge step counts cannot overflow.
	cells := float64(conds.Len())
	for _, a := range []search.Axis{space.Tau0, space.VDAC0, space.VDACFS} {
		n := len(a.Values)
		if n == 0 {
			n = a.Steps
		}
		cells *= float64(n)
	}
	if cells > maxPlaneCells {
		return plan{}, fmt.Errorf("job plane of %.0f cells (corners × conditions) exceeds the %d-cell limit", cells, maxPlaneCells)
	}
	backend := req.Backend
	if backend == "" {
		backend = engine.BackendBehavioral
	}
	if err := engine.ValidateBackendName(backend); err != nil {
		return plan{}, err
	}
	eng, err := s.engineFor(backend)
	if err != nil {
		return plan{}, err
	}
	progress := s.progressFunc(jobID)

	switch req.Kind {
	case KindSweep, KindMatrix:
		if req.Kind == KindSweep && conds.Len() != 1 {
			return plan{}, fmt.Errorf("sweep evaluates one condition, got %d (%s); use kind=matrix for the cross-condition plane", conds.Len(), conds)
		}
		cfgs, err := space.Configs() // fails on a space with no valid corner
		if err != nil {
			return plan{}, err
		}
		return plan{
			run: func(ctx context.Context, parent obs.SpanID) (any, error) {
				mat, err := eng.EvaluateMatrixOpts(cfgs, conds, engine.BatchOptions{
					Ctx:        ctx,
					OnProgress: func(done, total int) { progress(0, done, total) },
					ParentSpan: parent,
				})
				if err != nil {
					return nil, err
				}
				if req.Kind == KindSweep {
					return SweepResult{Condition: conds.String(), Points: search.FrontPoints(mat.Col(0))}, nil
				}
				return MatrixResult{Conditions: conds.String(), Robust: search.RobustPoints(dse.RobustFromMatrix(mat))}, nil
			},
			stats: eng.Stats,
		}, nil

	case KindSearch:
		opts := search.Options{
			Space:      space,
			Screen:     eng,
			Conditions: conds,
			Budget:     req.Budget,
			Rungs:      req.Rungs,
			Eta:        req.Eta,
			Finalists:  req.Finalists,
			Refine:     req.Refine,
			Seed:       req.Seed,
			OnProgress: progress,
		}
		if req.Promote {
			if opts.Final, err = s.engineFor(engine.BackendGolden); err != nil {
				return plan{}, err
			}
		}
		if err := opts.Validate(); err != nil {
			return plan{}, err
		}
		opts.OnRung = func(rs search.RungStats) {
			s.hub.Publish(jobID, Event{Type: EventRung, Rung: &rs})
		}
		statsFn := eng.Stats
		if opts.Final != nil && opts.Final != eng {
			final := opts.Final
			statsFn = func() engine.Stats { return addStats(eng.Stats(), final.Stats()) }
		}
		return plan{
			run: func(ctx context.Context, parent obs.SpanID) (any, error) {
				opts.Recorder = s.rec
				opts.Span = parent
				res, err := search.Run(ctx, opts)
				if err != nil {
					return nil, err
				}
				return search.NewJSONReport(res), nil
			},
			stats: statsFn,
		}, nil

	default:
		return plan{}, fmt.Errorf("unknown job kind %q (want %s, %s or %s)", req.Kind, KindSweep, KindSearch, KindMatrix)
	}
}

// progressFunc returns the per-cell progress callback for a job, throttled
// to ~100 events per batch (plus rung transitions and the final cell) so
// a 100k-cell sweep does not push 100k stream events — and so topic
// histories stay bounded. Calls are serialized by the engine per batch and
// rungs run sequentially, so the closure needs no lock.
func (s *Server) progressFunc(jobID string) func(rung, done, total int) {
	lastRung, lastDone := -1, -1
	return func(rung, done, total int) {
		step := total / 100
		if step < 1 {
			step = 1
		}
		if rung == lastRung && done != total && done-lastDone < step {
			return
		}
		lastRung, lastDone = rung, done
		s.hub.Publish(jobID, Event{Type: EventProgress, RungIndex: rung, Done: done, Total: total})
	}
}

// runJob executes a planned job to its terminal state. It owns the job's
// lifecycle events and always releases the session's operation slot.
func (s *Server) runJob(sess *session, j *job, p plan, ctx context.Context, cancel context.CancelFunc) {
	defer s.jobWG.Done()
	defer cancel()

	j.setRunning()
	s.hub.Publish(j.id, Event{Type: EventState, State: JobRunning})
	slog.Info("job running", "session", sess.id, "job", j.id, "kind", j.kind)
	span := s.rec.StartSpan(0, obs.CatJob, j.kind, j.id)
	j.setSpan(span.ID())
	s.sm.jobsActive.Add(1)
	pre := p.stats()
	result, err := p.run(ctx, span.ID())
	delta := p.stats().Sub(pre)
	dur := span.End()
	s.sm.jobsActive.Add(-1)
	sess.end(j.id)

	switch {
	case err == nil:
		data, merr := json.Marshal(result)
		if merr != nil {
			s.finishJob(j, JobFailed, nil, delta, merr, dur)
			return
		}
		s.finishJob(j, JobDone, data, delta, nil, dur)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.finishJob(j, JobCanceled, nil, delta, err, dur)
	default:
		s.finishJob(j, JobFailed, nil, delta, err, dur)
	}
}

// finishJob records a job's terminal state everywhere it surfaces: the
// job record, the event topic, the jobs_total counters, and the log.
func (s *Server) finishJob(j *job, state string, result json.RawMessage, delta engine.Stats, err error, dur time.Duration) {
	j.finish(state, result, delta, err)
	ev := Event{Type: EventDone}
	ctr := s.sm.jobsDone
	switch state {
	case JobFailed:
		ev = Event{Type: EventFailed, Error: err.Error()}
		ctr = s.sm.jobsFailed
	case JobCanceled:
		ev = Event{Type: EventCanceled, Error: err.Error()}
		ctr = s.sm.jobsCancel
	}
	s.hub.Publish(j.id, ev)
	ctr.Inc()
	if err != nil {
		slog.Warn("job finished", "session", j.sid, "job", j.id, "kind", j.kind,
			"state", state, "duration", dur, "err", err)
		return
	}
	slog.Info("job finished", "session", j.sid, "job", j.id, "kind", j.kind,
		"state", state, "duration", dur)
}

// addStats sums two engines' accounting (a search job screening on one
// engine and promoting on another).
func addStats(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Hits:        a.Hits + b.Hits,
		DiskHits:    a.DiskHits + b.DiskHits,
		Misses:      a.Misses + b.Misses,
		StoreErrors: a.StoreErrors + b.StoreErrors,
		Entries:     a.Entries + b.Entries,
	}
}
