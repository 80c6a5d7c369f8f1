package server

// session.go is the multi-user surface of the evaluation service. A
// session is a lightweight claim ticket: it serializes ITS OWN operations
// (one active job per session, guarded by a mutex holding the op kind and
// cancel func) while all sessions share the server's single exp.Context —
// so two users sweeping overlapping spaces dedupe against the same memory
// cache and persistent store instead of re-evaluating each other's work.

import (
	"context"
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
	jobs   map[string]*job
	order  []string // job IDs in submission order
}

func newSession(id string) *session {
	return &session{id: id, created: time.Now(), jobs: make(map[string]*job)}
}

// begin claims the session's single operation slot for a job. The error
// names the active job so a 409 response tells the client what to wait
// for (or DELETE).
func (s *session) begin(kind, jobID string, cancel context.CancelFunc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opJob != "" {
		return fmt.Errorf("session %s is busy: %s job %s is active", s.id, s.opKind, s.opJob)
	}
	s.opKind, s.opJob, s.cancel = kind, jobID, cancel
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

// cancelActive cancels whatever operation is running (session teardown,
// server shutdown deadline).
func (s *session) cancelActive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		s.cancel()
	}
}

// addJob registers a job record under the session.
func (s *session) addJob(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// getJob returns a job record by ID.
func (s *session) getJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobIDs returns the session's job IDs in submission order.
func (s *session) jobIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
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
