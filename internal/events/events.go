// Package events is a discrete-event simulation kernel in the style of the
// SystemVerilog flow the paper embeds its behavioral models in: integer
// femtosecond time, a deterministic event scheduler, and real-valued
// signals that events drive and sample.
//
// OPTIMA's key idea is that analog bit-line behavior can be simulated "in an
// event-based fashion, akin to digital simulation tools" (Section IV): the
// calibrated models are evaluated only at scheduled instants (sampling
// switches closing, ADC strobes) instead of integrating differential
// equations. This kernel provides those instants.
package events

import (
	"container/heap"
	"errors"
	"fmt"
)

// Time is simulation time in integer femtoseconds. Integer time makes event
// ordering exact and runs reproducible.
type Time int64

// Time unit constants.
const (
	Femtosecond Time = 1
	Picosecond  Time = 1000 * Femtosecond
	Nanosecond  Time = 1000 * Picosecond
)

// FromSeconds converts floating-point seconds to the nearest Time.
func FromSeconds(s float64) Time { return Time(s*1e15 + 0.5) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Nanosecond:
		return fmt.Sprintf("%.3f ns", float64(t)/float64(Nanosecond))
	case t >= Picosecond:
		return fmt.Sprintf("%.3f ps", float64(t)/float64(Picosecond))
	default:
		return fmt.Sprintf("%d fs", int64(t))
	}
}

// event is a scheduled callback. Events are ordered by time, then by
// scheduling sequence (FIFO among simultaneous events), which makes runs
// deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// ErrPast is returned when scheduling before the current simulation time.
var ErrPast = errors.New("events: cannot schedule in the past")

// Simulator owns the event queue and the simulation clock. The zero value
// is ready to use. Simulators are not safe for concurrent use; run one
// simulation per goroutine.
type Simulator struct {
	now   Time
	queue eventHeap
	seq   uint64
}

// NewSimulator returns a simulator at time zero.
func NewSimulator() *Simulator { return &Simulator{} }

// Schedule queues fn to run after the given delay. It returns ErrPast for
// negative delays.
func (s *Simulator) Schedule(delay Time, fn func()) error {
	return s.At(s.now+delay, fn)
}

// At queues fn to run at the absolute time t.
func (s *Simulator) At(t Time, fn func()) error {
	if t < s.now {
		return fmt.Errorf("events: at %v (now %v): %w", t, s.now, ErrPast)
	}
	if fn == nil {
		return errors.New("events: nil event function")
	}
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
	s.seq++
	return nil
}

// Run executes events in order until the queue is empty.
func (s *Simulator) Run() {
	s.RunUntil(1<<62 - 1)
}

// RunUntil executes events with activation time ≤ limit. The clock is left
// at the last executed event.
func (s *Simulator) RunUntil(limit Time) {
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.at > limit {
			break
		}
		heap.Pop(&s.queue)
		s.now = next.at
		next.fn()
	}
}

// Reset clears the queue and rewinds the clock to zero.
func (s *Simulator) Reset() {
	s.queue = nil
	s.now = 0
	s.seq = 0
}
