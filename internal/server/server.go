// Package server is the exploration-as-a-service layer: a long-lived HTTP
// server (stdlib net/http only) exposing the evaluation stack to multiple
// concurrent users. Clients create sessions, submit sweep / adaptive-search
// / condition-matrix jobs, and follow live progress as a Server-Sent Events
// stream (text/event-stream on plain net/http; FollowEvents is the client,
// `curl -N` works too), resuming after a Last-Event-ID without a gap.
//
// The concurrency model has two layers. Per session, operations are
// serialized: a session holds at most one active job (submitting into a
// busy session is a 409), and DELETE on the active job cancels it
// promptly — in-flight backend evaluations complete and persist, unstarted
// cells are abandoned, so the store stays consistent and a rerun resumes
// from the warm tiers. Across sessions, everything is shared: all jobs run
// against one exp.Context, so overlapping submissions from different users
// dedupe against the same memory cache and persistent store.
//
// Results use the same JSON shapes the optima CLI writes (search jobs
// return search.JSONReport — byte-identical to `optima search`'s
// search.json payload for identical options, at any worker count).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"optima/internal/engine"
	"optima/internal/exp"
	"optima/internal/obs"
)

// Server is the service state: the shared experiment context, the session
// table, and the progress hub. Create with New, serve Handler, stop with
// Shutdown.
type Server struct {
	exp *exp.Context
	hub *Hub
	mux *http.ServeMux
	rec *obs.Recorder
	sm  serverMetrics

	// engineFor resolves a backend name to an evaluation engine — normally
	// exp.Context.EngineFor; in-package tests substitute controllable
	// backends through it.
	engineFor func(name string) (*engine.Engine, error)

	mu        sync.Mutex
	sessions  map[string]*session
	sessOrder []string

	nextSess atomic.Uint64
	nextJob  atomic.Uint64

	jobWG   sync.WaitGroup
	closing atomic.Bool
}

// serverMetrics holds the server-level instrument handles. The zero value
// (every handle nil) is inert, so a bare Server in tests records nothing.
type serverMetrics struct {
	jobsActive *obs.Gauge   // optima_jobs_active
	jobsDone   *obs.Counter // optima_jobs_total{state="done"}
	jobsFailed *obs.Counter // optima_jobs_total{state="failed"}
	jobsCancel *obs.Counter // optima_jobs_total{state="canceled"}
}

func newServerMetrics(rec *obs.Recorder) serverMetrics {
	reg := rec.Metrics()
	const jobsHelp = "Jobs finished, by terminal state."
	return serverMetrics{
		jobsActive: reg.Gauge("optima_jobs_active", "Jobs currently running."),
		jobsDone:   reg.Counter("optima_jobs_total", jobsHelp, "state", JobDone),
		jobsFailed: reg.Counter("optima_jobs_total", jobsHelp, "state", JobFailed),
		jobsCancel: reg.Counter("optima_jobs_total", jobsHelp, "state", JobCanceled),
	}
}

// New wraps an experiment context into a server. The caller keeps
// ownership of nothing: Shutdown closes the context (flushing the
// persistent store).
//
// The server always runs instrumented: it adopts the context's Recorder —
// creating one when the context has none, before the engine is built, so
// the engine and store register against it — serves its registry on GET
// /metrics, and serves per-job span subtrees as Chrome trace JSON.
func New(expCtx *exp.Context) *Server {
	if expCtx.Recorder == nil {
		expCtx.Recorder = obs.NewRecorder(obs.RecorderOptions{Logger: slog.Default()})
	}
	s := &Server{
		exp:      expCtx,
		hub:      NewHub(),
		mux:      http.NewServeMux(),
		rec:      expCtx.Recorder,
		sessions: make(map[string]*session),
	}
	s.sm = newServerMetrics(s.rec)
	s.rec.Metrics().GaugeFunc("optima_sessions_active", "Live sessions.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sessions))
	})
	s.hub.instrument(s.rec)
	s.engineFor = expCtx.EngineFor
	s.routes()
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/status", s.handleStatus)
	s.mux.HandleFunc("POST /api/sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /api/sessions", s.handleListSessions)
	s.mux.HandleFunc("GET /api/sessions/{sid}", s.handleGetSession)
	s.mux.HandleFunc("DELETE /api/sessions/{sid}", s.handleDeleteSession)
	s.mux.HandleFunc("POST /api/sessions/{sid}/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /api/sessions/{sid}/jobs/{jid}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /api/sessions/{sid}/jobs/{jid}", s.handleCancelJob)
	s.mux.HandleFunc("GET /api/sessions/{sid}/jobs/{jid}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /api/sessions/{sid}/jobs/{jid}/trace", s.handleJobTrace)
}

// handleMetrics serves the recorder's registry in the Prometheus text
// exposition format — the scrape surface for the whole stack (engine,
// store, hub, search, server), since every layer registers against the
// one adopted recorder.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.rec.Metrics().WritePrometheus(w); err != nil {
		// Headers are gone; the scraper sees a truncated body and retries.
		slog.Debug("metrics write failed", "err", err)
	}
}

// handleJobTrace serves the job's span subtree (the job span plus every
// batch/eval/rung span started under it) as Chrome trace-format JSON —
// open the payload in Perfetto or chrome://tracing. A job that has not
// started yet, or whose spans have been overwritten in the recorder's
// ring, yields an empty (but valid) trace.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	_, j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	spans := obs.Subtree(s.rec.Snapshot(), j.rootSpan())
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteTrace(w, spans); err != nil {
		slog.Debug("trace write failed", "job", j.id, "err", err)
	}
}

// Shutdown drains the server: new sessions and jobs are refused (503),
// running jobs are waited for — or cancelled when ctx expires first — and
// the experiment context is closed, flushing the persistent store. Call
// after the HTTP listener has stopped accepting.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Creation order, not map order: the cancel fan-out is then
		// deterministic, so a drain-deadline shutdown logs and unwinds
		// identically across runs.
		for _, sess := range s.orderedSessions() {
			sess.cancelActive()
		}
		<-done // cancelled jobs unwind quickly (cells are abandoned)
	}
	return s.exp.Close()
}

// StoreStatus reports the persistent-store health on GET /api/status.
type StoreStatus struct {
	// Persistent is false when no cache directory was configured OR the
	// store failed to open (Error says why) — either way the server is
	// serving from the memory tier only and results do not survive it.
	Persistent bool   `json:"persistent"`
	Dir        string `json:"dir,omitempty"`
	Error      string `json:"error,omitempty"`
	// Records is the live result count under the session fingerprint.
	Records int `json:"records,omitempty"`
}

// SessionJobCounts is one session's job accounting on GET /api/status.
type SessionJobCounts struct {
	ID string `json:"id"`
	// Active is 0 or 1 — a session serializes its operations.
	Active int `json:"active"`
	Total  int `json:"total"`
}

// HubStatus reports the progress hub's fan-out state on GET /api/status.
type HubStatus struct {
	Topics      int     `json:"topics"`
	Subscribers int     `json:"subscribers"`
	DroppedSlow float64 `json:"dropped_slow"`
}

// StatusResponse is the body of GET /api/status.
type StatusResponse struct {
	Backend    string       `json:"backend"`
	Workers    int          `json:"workers"`
	Conditions string       `json:"conditions"`
	Sessions   int          `json:"sessions"`
	ActiveJobs int          `json:"active_jobs"`
	Engine     engine.Stats `json:"engine"`
	Store      StoreStatus  `json:"store"`
	// SessionJobs breaks the job accounting down per session, in session
	// creation order.
	SessionJobs []SessionJobCounts `json:"session_jobs,omitempty"`
	Hub         HubStatus          `json:"hub"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	eng := s.exp.Engine() // builds on first call; resolves the store
	resp := StatusResponse{
		Backend:    eng.Backend().Name(),
		Workers:    eng.Workers(),
		Conditions: s.exp.ConditionSet().String(),
		Engine:     eng.Stats(),
	}
	if st := s.exp.Store(); st != nil {
		resp.Store = StoreStatus{Persistent: true, Dir: st.Dir(), Records: st.Len()}
	} else if err := s.exp.StoreError(); err != nil {
		// The degradation surface: CacheDir was configured but the store
		// could not open, so the server runs memory-only.
		resp.Store.Error = err.Error()
	}
	resp.Hub.Topics, resp.Hub.Subscribers = s.hub.Counts()
	resp.Hub.DroppedSlow = s.hub.dropped.Value()
	sessions := s.orderedSessions()
	resp.Sessions = len(sessions)
	// Per-session counts walk creation order so the response is stable
	// across identical states (map order would shuffle it per request).
	for _, sess := range sessions {
		sess.mu.Lock()
		sc := SessionJobCounts{ID: sess.id, Total: len(sess.order)}
		if sess.opJob != "" {
			sc.Active = 1
			resp.ActiveJobs++
		}
		sess.mu.Unlock()
		resp.SessionJobs = append(resp.SessionJobs, sc)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	sess := newSession(fmt.Sprintf("s%d", s.nextSess.Add(1)))
	s.mu.Lock()
	s.sessions[sess.id] = sess
	s.sessOrder = append(s.sessOrder, sess.id)
	s.mu.Unlock()
	slog.Info("session created", "session", sess.id)
	writeJSON(w, http.StatusCreated, sess.status())
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.orderedSessions()
	out := make([]SessionStatus, len(sessions))
	for i, sess := range sessions {
		out[i] = sess.status()
	}
	writeJSON(w, http.StatusOK, out)
}

// orderedSessions snapshots the live sessions in creation order.
func (s *Server) orderedSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sessions := make([]*session, len(s.sessOrder))
	for i, id := range s.sessOrder {
		sessions[i] = s.sessions[id]
	}
	return sessions
}

// lookupSession resolves {sid}, writing the 404 itself on a miss.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("sid")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, "no session %q", id)
	}
	return sess
}

// lookupJob resolves {sid}/{jid}, writing the 404 itself on a miss.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*session, *job) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return nil, nil
	}
	id := r.PathValue("jid")
	j := sess.getJob(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q in session %s", id, sess.id)
		return nil, nil
	}
	return sess, j
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookupSession(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.status())
	}
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	// Look up and remove in one critical section: of two concurrent
	// DELETEs only the one that removes the entry tears the session down;
	// the other sees a 404.
	sid := r.PathValue("sid")
	s.mu.Lock()
	sess := s.sessions[sid]
	if sess != nil {
		delete(s.sessions, sid)
		s.sessOrder = slices.DeleteFunc(s.sessOrder, func(id string) bool { return id == sid })
	}
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, "no session %q", sid)
		return
	}
	sess.cancelActive()
	slog.Info("session deleted", "session", sess.id, "jobs", len(sess.jobIDs()))
	// Disconnect watchers and free the event histories. A still-running
	// job keeps running to its terminal state (its runner holds direct
	// references); it just has no audience anymore.
	for _, id := range sess.jobIDs() {
		s.hub.Drop(id)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad job request: %v", err)
		return
	}
	jobID := fmt.Sprintf("j%d", s.nextJob.Add(1))
	p, err := s.buildPlan(req, jobID)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := sess.begin(req.Kind, jobID, cancel); err != nil {
		cancel()
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	j := newJob(jobID, sess.id, req.Kind)
	sess.addJob(j)
	s.hub.Publish(jobID, Event{Type: EventState, State: JobQueued})
	s.jobWG.Add(1)
	go s.runJob(sess, j, p, ctx, cancel)
	writeJSON(w, http.StatusAccepted, j.status(false))
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if _, j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status(true))
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	sess, j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	// Delivering the cancellation is all DELETE does; the job reaches its
	// terminal state asynchronously (follow its events or poll GET). On
	// an already-finished job this is a no-op returning the final state.
	sess.cancelJob(j.id)
	writeJSON(w, http.StatusAccepted, j.status(false))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// On a write error the header is gone; nothing useful is left to do.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
