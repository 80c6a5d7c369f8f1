package server

// hub.go is the live-progress fan-out behind the event streams: one topic
// per job, each event marshaled exactly once and broadcast as raw bytes to
// every subscriber. A topic is opened once, when its job is submitted, and
// keeps its job's full event history until it is dropped — with its
// session, or when the server evicts the finished job's result to stay
// within its retention budget (retention.go), which counts the history's
// bytes with the result. Until then a subscriber attaching after a job
// finished still replays every event up to and including the terminal
// one, and a client resuming from a seq (its Last-Event-ID) replays
// exactly what it has not seen — the CI smoke's "follow the stream to
// done" never races job completion. Nothing re-creates a dropped topic:
// publishing to it does nothing, and subscribing to it reports it gone.

import (
	"encoding/json"
	"sync"

	"optima/internal/obs"
	"optima/internal/search"
)

// Event is one progress message of a job's event stream. Seq numbers are
// per job, contiguous from 1, so a consumer can detect a gap (there is none
// over a single connection — slow consumers are disconnected, not skipped
// ahead) and resume after the last seq it saw.
type Event struct {
	Seq uint64 `json:"seq"`
	Job string `json:"job"`
	// Type discriminates the event: "state" (State carries
	// queued/running), "progress" (Done/Total cells of the current batch,
	// Rung set for search jobs), "rung" (RungStats of a completed search
	// rung), and the terminal "done", "failed" (Error set) or "canceled".
	Type  string            `json:"type"`
	State string            `json:"state,omitempty"`
	Rung  *search.RungStats `json:"rung,omitempty"`
	// RungIndex is the rung a progress event belongs to (search jobs;
	// omitted — i.e. 0 — for sweep/matrix and for rung 0 itself).
	RungIndex int    `json:"rung_index,omitempty"`
	Done      int    `json:"done,omitempty"`
	Total     int    `json:"total,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Event types. The last three are terminal: they close the topic.
const (
	EventState    = "state"
	EventProgress = "progress"
	EventRung     = "rung"
	EventDone     = "done"
	EventFailed   = "failed"
	EventCanceled = "canceled"
)

// Terminal reports whether the event ends its topic's stream.
func (e Event) Terminal() bool {
	return e.Type == EventDone || e.Type == EventFailed || e.Type == EventCanceled
}

// subBuffer is a subscriber channel's depth. Publishers never block: a
// subscriber that falls this many events behind is dropped (its channel
// closed) rather than allowed to stall the job's progress callbacks.
const subBuffer = 64

// Hub routes job events to event-stream subscribers, one topic per job ID.
type Hub struct {
	// dropped counts slow subscribers disconnected by Publish
	// (optima_hub_dropped_total); nil until instrument — a nil counter
	// no-ops, so the hub works unregistered (tests construct it bare).
	dropped *obs.Counter

	mu     sync.Mutex
	topics map[string]*topic
}

// topic is one job's stream. history[i] is the event with seq i+1, and
// bytes is the history's total size.
type topic struct {
	seq     uint64
	history [][]byte
	bytes   int
	// subs maps each live channel to the seq its subscriber resumed after;
	// only a subscriber that resumed past the current seq skips anything.
	subs map[chan []byte]uint64
	done bool
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{topics: make(map[string]*topic)}
}

// Open creates a job's topic. The server opens each job's topic once, at
// submission, before the job can be looked up.
func (h *Hub) Open(job string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.topics[job] == nil {
		h.topics[job] = &topic{subs: make(map[chan []byte]uint64)}
	}
}

// Publish stamps the event's sequence number, marshals it once, and fans
// the bytes out. A terminal event closes the topic: subscriber channels
// are closed after delivery and later publishes are ignored. Publishing
// to a topic that is not open — dropped, say, while its job still runs —
// does nothing.
func (h *Hub) Publish(job string, ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.topics[job]
	if t == nil || t.done {
		return
	}
	t.seq++
	ev.Seq = t.seq
	ev.Job = job
	data, err := json.Marshal(ev)
	if err != nil {
		// Event is a plain value struct; marshaling cannot fail.
		panic("server: " + err.Error())
	}
	t.history = append(t.history, data)
	t.bytes += len(data)
	for ch, after := range t.subs {
		if ev.Seq <= after {
			continue
		}
		select {
		case ch <- data:
		default:
			delete(t.subs, ch)
			close(ch)
			h.dropped.Inc()
		}
	}
	if ev.Terminal() {
		t.done = true
		for ch := range t.subs {
			delete(t.subs, ch)
			close(ch)
		}
	}
}

// Subscribe atomically snapshots the topic's history after seq `after` and
// registers a live channel, so no event is missed or duplicated across the
// boundary: the events returned and then received carry seqs after+1,
// after+2, … without a gap. after = 0 replays everything. On a finished
// topic the returned channel is already closed — the history ends with the
// terminal event, or is empty when after is at or past it. On a topic that
// is not open (dropped, or never opened) the channel is closed and ok is
// false.
func (h *Hub) Subscribe(job string, after uint64) (history [][]byte, ch chan []byte, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch = make(chan []byte, subBuffer)
	t := h.topics[job]
	if t == nil {
		close(ch)
		return nil, ch, false
	}
	if after < t.seq {
		history = append(history, t.history[after:]...)
	}
	if t.done {
		close(ch)
		return history, ch, true
	}
	t.subs[ch] = after
	return history, ch, true
}

// historyBytes returns the size of a topic's event history (0 when it is
// not open).
func (h *Hub) historyBytes(job string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if t := h.topics[job]; t != nil {
		return t.bytes
	}
	return 0
}

// Unsubscribe detaches a subscriber channel (e.g. the client hung up).
// Idempotent, and safe to race with a terminal publish: the channel is
// closed exactly once, by whichever side removes it from the topic.
func (h *Hub) Unsubscribe(job string, ch chan []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if t := h.topics[job]; t != nil {
		if _, ok := t.subs[ch]; ok {
			delete(t.subs, ch)
			close(ch)
		}
	}
}

// instrument registers the hub's telemetry on a recorder: live topic and
// subscriber gauges plus the dropped-slow-subscriber counter.
func (h *Hub) instrument(rec *obs.Recorder) {
	reg := rec.Metrics()
	h.dropped = reg.Counter("optima_hub_dropped_total",
		"Event-stream subscribers disconnected for falling behind (they resume with Last-Event-ID).")
	reg.GaugeFunc("optima_hub_topics",
		"Live progress topics (one per job not yet dropped).",
		func() float64 { t, _ := h.Counts(); return float64(t) })
	reg.GaugeFunc("optima_hub_subscribers",
		"Attached event-stream subscribers across all topics.",
		func() float64 { _, s := h.Counts(); return float64(s) })
}

// Counts reports the hub's live topic and subscriber totals.
func (h *Hub) Counts() (topics, subscribers int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range h.topics {
		subscribers += len(t.subs)
	}
	return len(h.topics), subscribers
}

// Drop discards a topic and disconnects its subscribers — when its session
// is deleted, or when the server evicts its finished job's result. Later
// publishes to it do nothing, and later subscribers find it gone.
func (h *Hub) Drop(job string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.topics[job]
	if t == nil {
		return
	}
	for ch := range t.subs {
		delete(t.subs, ch)
		close(ch)
	}
	delete(h.topics, job)
}
