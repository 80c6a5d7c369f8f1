package server

// hub.go is the live-progress fan-out behind the event streams. Each job
// owns its stream: the events live on the job record, under the job's
// lock, each marshaled exactly once and broadcast as raw bytes to every
// subscriber. A stream opens with the job's first event and keeps the
// job's full event history until it is dropped — with its session, or
// when the server evicts the finished job's result to stay within its
// retention budget (retention.go), which counts the history's bytes with
// the result. Until then a subscriber attaching after a job finished still
// replays every event up to and including the terminal one, and a client
// resuming from a seq (its Last-Event-ID) replays exactly what it has not
// seen — the CI smoke's "follow the stream to done" never races job
// completion. A dropped stream never reopens: publishing to it does
// nothing, and subscribing to it reports it gone.

import (
	"encoding/json"
	"sync/atomic"

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

// Event types. The last three are terminal: they end the stream, and each
// is the name of the job state it reports.
const (
	EventState    = "state"
	EventProgress = "progress"
	EventRung     = "rung"
	EventDone     = JobDone
	EventFailed   = JobFailed
	EventCanceled = JobCanceled
)

// Terminal reports whether the event ends its job's stream.
func (e Event) Terminal() bool {
	return e.Type == EventDone || e.Type == EventFailed || e.Type == EventCanceled
}

// subBuffer is a subscriber channel's depth. Publishers never block: a
// subscriber that falls this many events behind is dropped (its channel
// closed) rather than allowed to stall the job's progress callbacks.
const subBuffer = 64

// streamCounts is the server-wide account of its jobs' streams behind the
// optima_hub_* series and the /api/status hub block: streams open (jobs
// whose stream has an event and is not dropped), subscribers attached, and
// slow subscribers disconnected. Jobs update it where a stream opens or
// drops and where a subscriber attaches or detaches.
type streamCounts struct {
	open, subscribers atomic.Int64
	dropped           *obs.Counter // nil-safe: a bare count records no drops
}

// publish appends an event to the job's stream; see emit.
func (j *job) publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emit(ev)
}

// emit stamps the event's sequence number, marshals it once, and fans the
// bytes out. A terminal event ends the stream: subscriber channels are
// closed after delivery and later events are ignored, as they are on a
// dropped stream. j.mu must be held.
func (j *job) emit(ev Event) {
	if j.ended || j.dropped {
		return
	}
	if len(j.history) == 0 {
		j.streams.open.Add(1)
	}
	ev.Seq = uint64(len(j.history)) + 1
	ev.Job = j.id
	data, err := json.Marshal(ev)
	if err != nil {
		// Event is a plain value struct; marshaling cannot fail.
		panic("server: " + err.Error())
	}
	j.history = append(j.history, data)
	j.historyBytes += len(data)
	if !ev.Terminal() {
		for ch, after := range j.subs {
			if ev.Seq > after && !j.deliver(ch, data) {
				j.detach(ch)
			}
		}
		return
	}
	// The subscribers are counted off before the terminal event reaches
	// them, so a client that has read it finds none attached.
	j.ended = true
	j.streams.subscribers.Add(-int64(len(j.subs)))
	for ch, after := range j.subs {
		if ev.Seq > after {
			j.deliver(ch, data)
		}
		close(ch)
	}
	j.subs = nil
}

// deliver hands data to a subscriber without blocking. A subscriber that
// has fallen subBuffer events behind is not waited for: deliver counts it
// as dropped and reports false, and the caller closes its channel.
func (j *job) deliver(ch chan []byte, data []byte) bool {
	select {
	case ch <- data:
		return true
	default:
		j.streams.dropped.Inc()
		return false
	}
}

// subscribe atomically snapshots the stream's history after seq `after`
// and attaches a live channel, so no event is missed or duplicated across
// the boundary: the events returned and then received carry seqs after+1,
// after+2, … without a gap. after = 0 replays everything. On an ended
// stream the returned channel is already closed — the history ends with
// the terminal event, or is empty when after is at or past it. On a
// dropped stream the channel is closed and ok is false.
func (j *job) subscribe(after uint64) (history [][]byte, ch chan []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch = make(chan []byte, subBuffer)
	if j.dropped {
		close(ch)
		return nil, ch, false
	}
	if after < uint64(len(j.history)) {
		history = append(history, j.history[after:]...)
	}
	if j.ended {
		close(ch)
		return history, ch, true
	}
	if j.subs == nil {
		j.subs = make(map[chan []byte]uint64)
	}
	j.subs[ch] = after
	j.streams.subscribers.Add(1)
	return history, ch, true
}

// unsubscribe detaches a subscriber channel (e.g. the client hung up).
// Idempotent, and safe to race with a terminal publish: the channel is
// closed exactly once, by whichever side removes it from the stream.
func (j *job) unsubscribe(ch chan []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.subs[ch]; ok {
		j.detach(ch)
	}
}

// dropEvents discards the job's stream and disconnects its subscribers,
// when its session is deleted. Later events do nothing, and later
// subscribers find it gone.
func (j *job) dropEvents() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.drop()
}

// drop is dropEvents with j.mu held.
func (j *job) drop() {
	if j.dropped {
		return
	}
	if len(j.history) > 0 {
		j.streams.open.Add(-1)
	}
	j.dropped = true
	j.history, j.historyBytes = nil, 0
	for ch := range j.subs {
		j.detach(ch)
	}
}

// detach removes and closes a subscriber channel. j.mu must be held.
func (j *job) detach(ch chan []byte) {
	delete(j.subs, ch)
	close(ch)
	j.streams.subscribers.Add(-1)
}
