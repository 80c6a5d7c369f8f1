package server

// session.go is the multi-user surface of the evaluation service. A
// session is a lightweight claim ticket: it serializes ITS OWN operations
// (one active job per session, guarded by a mutex holding the op kind and
// cancel func) while all sessions share the server's single exp.Context —
// so two users sweeping overlapping spaces dedupe against the same memory
// cache and persistent store instead of re-evaluating each other's work.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

type session struct {
	id      string
	created time.Time

	mu     sync.Mutex
	opKind string
	opJob  string
	cancel context.CancelFunc
	closed bool // deleted: begin refuses new jobs
	jobs   map[string]*job
	order  []string // job IDs in submission order
}

// errSessionClosed is begin's answer in a session being deleted.
var errSessionClosed = errors.New("session was deleted")

func newSession(id string) *session {
	return &session{id: id, created: time.Now(), jobs: make(map[string]*job)}
}

// begin claims the session's single operation slot for a job and
// registers the job record under the session, in one step with respect to
// close: a job either lands in a live session — and a later close cancels
// it and finds its ID — or is refused with errSessionClosed. A busy error
// names the active job so a 409 response tells the client what to wait
// for (or DELETE).
func (s *session) begin(j *job, cancel context.CancelFunc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errSessionClosed
	}
	if s.opJob != "" {
		return fmt.Errorf("session %s is busy: %s job %s is active", s.id, s.opKind, s.opJob)
	}
	s.opKind, s.opJob, s.cancel = j.kind, j.id, cancel
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return nil
}

// end releases the operation slot if the job still holds it.
func (s *session) end(jobID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opJob == jobID {
		s.opKind, s.opJob, s.cancel = "", "", nil
	}
}

// cancelJob cancels the job's context if it is the session's active
// operation.
func (s *session) cancelJob(jobID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opJob == jobID && s.cancel != nil {
		s.cancel()
	}
}

// cancelActive cancels whatever operation is running (server shutdown
// deadline).
func (s *session) cancelActive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		s.cancel()
	}
}

// close tears the session down: it cancels the running operation, refuses
// new ones, and returns every job ID the session ever held.
func (s *session) close() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.cancel != nil {
		s.cancel()
	}
	return append([]string(nil), s.order...)
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
		ID:         s.id,
		Created:    s.created,
		ActiveJob:  s.opJob,
		ActiveKind: s.opKind,
		Jobs:       make([]JobStatus, 0, len(s.order)),
	}
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	// Job statuses are taken outside the session lock: job.mu is held by
	// the runner goroutine while it publishes, and lock nesting here would
	// order session.mu before job.mu for no benefit.
	for _, j := range jobs {
		st.Jobs = append(st.Jobs, j.status(false))
	}
	return st
}
