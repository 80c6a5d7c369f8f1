package server

// session.go is the multi-user surface of the evaluation service. A
// session is a lightweight claim ticket: it serializes ITS OWN operations
// (one active job per session, guarded by a mutex) while all sessions
// share the server's single exp.Context — so two users sweeping
// overlapping spaces dedupe against the same memory cache and persistent
// store instead of re-evaluating each other's work.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

type session struct {
	id      string
	created time.Time

	mu     sync.Mutex
	active *job // holds the operation slot; nil when idle
	closed bool // deleted: begin refuses new jobs
	jobs   map[string]*job
	order  []*job // submission order
}

// errSessionClosed is begin's answer in a session being deleted.
var errSessionClosed = errors.New("session was deleted")

func newSession(id string) *session {
	return &session{id: id, created: time.Now(), jobs: make(map[string]*job)}
}

// begin claims the session's single operation slot for a job and
// registers the job record under the session, in one step with respect to
// close: a job either lands in a live session — and a later close cancels
// it and returns it — or is refused with errSessionClosed. A busy error
// names the active job so a 409 response tells the client what to wait
// for (or DELETE).
func (s *session) begin(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errSessionClosed
	}
	if a := s.active; a != nil {
		return fmt.Errorf("session %s is busy: %s job %s is active", s.id, a.kind, a.id)
	}
	s.active = j
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	return nil
}

// end releases the operation slot if the job still holds it.
func (s *session) end(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == j {
		s.active = nil
	}
}

// cancelActive cancels whatever operation is running (server shutdown
// deadline).
func (s *session) cancelActive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active != nil {
		s.active.cancel()
	}
}

// close tears the session down: it cancels the running operation, refuses
// new ones, and returns every job the session ever held.
func (s *session) close() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.active != nil {
		s.active.cancel()
	}
	return slices.Clone(s.order)
}

// getJob returns a job record by ID.
func (s *session) getJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// SessionStatus is the JSON view of a session. Jobs are summarized
// without their results; GET the job itself for the full payload.
type SessionStatus struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created"`
	// ActiveJob/ActiveKind name the operation holding the session's slot,
	// empty when the session is idle.
	ActiveJob  string      `json:"active_job,omitempty"`
	ActiveKind string      `json:"active_kind,omitempty"`
	Jobs       []JobStatus `json:"jobs"`
}

func (s *session) status() SessionStatus {
	s.mu.Lock()
	st := SessionStatus{
		ID:      s.id,
		Created: s.created,
		Jobs:    make([]JobStatus, 0, len(s.order)),
	}
	if a := s.active; a != nil {
		st.ActiveJob, st.ActiveKind = a.id, a.kind
	}
	jobs := slices.Clone(s.order)
	s.mu.Unlock()
	// Job statuses are taken outside the session lock: job.mu is held by
	// the runner goroutine while it publishes, and lock nesting here would
	// order session.mu before job.mu for no benefit.
	for _, j := range jobs {
		st.Jobs = append(st.Jobs, j.status(false))
	}
	return st
}
