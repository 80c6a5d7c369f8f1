package obs

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories used by the instrumented layers. The category names the
// layer, the span name the operation; Chrome trace viewers group and color
// by category.
const (
	// CatBatch covers one engine batched submission end to end.
	CatBatch = "batch"
	// CatEval covers one backend evaluation of a (config, condition) job.
	CatEval = "eval"
	// CatPhase covers one internal phase of a golden evaluation (the
	// input-space fan-out, the Monte-Carlo sigma pass).
	CatPhase = "phase"
	// CatTrim covers golden ADC trim calibration (and its per-code
	// transients).
	CatTrim = "trim"
	// CatStore covers persistent-store work: open, compaction, lookups and
	// batched appends.
	CatStore = "store"
	// CatSearch covers one adaptive search run.
	CatSearch = "search"
	// CatRung covers one search rung (screening or promotion).
	CatRung = "rung"
	// CatJob covers one server job from running to terminal state.
	CatJob = "job"
	// CatRemote covers distributed-evaluation work: one coordinator
	// dispatch, the per-worker batch shipments under it, and the
	// worker-reported remote evaluations (internal/remote).
	CatRemote = "remote"
)

// SpanID identifies one span within a Recorder. 0 is "no span" — the
// parent of a root span, and the ID returned by a nil or zero Timer.
type SpanID uint64

// Span is one completed timed operation. Start is measured on the
// recorder's clock (monotonic since the recorder's epoch by default);
// completed spans are held in a fixed-capacity ring, oldest overwritten
// first.
type Span struct {
	ID     SpanID
	Parent SpanID
	// Cat is the span's category (CatEval, CatStore, ...), Name the
	// operation, Arg an optional human-readable argument (the corner, the
	// key count).
	Cat, Name, Arg string
	Start          time.Duration
	Dur            time.Duration
}

// End returns the span's end time on the recorder's clock.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// DefaultCapacity is the span ring's default size. At ~100 bytes per span
// the default ring holds the full trace of a 48-corner sweep many times
// over in ~1.6 MiB; overflow drops the oldest spans and counts them
// (Recorder.Dropped), it never blocks or reallocates.
const DefaultCapacity = 16384

// RecorderOptions configures NewRecorder. The zero value is a working
// default: DefaultCapacity spans, a monotonic clock, no slow-eval warning.
type RecorderOptions struct {
	// Capacity is the span ring's size (<= 0 = DefaultCapacity).
	Capacity int
	// Clock returns the current time on the recorder's timeline. Nil means
	// the monotonic wall clock relative to the recorder's creation —
	// legitimate here because obs is the one layer that owns time; the
	// instrumented deterministic packages only ever see durations through
	// spans and metrics. Tests inject a fake clock for exact timings.
	Clock func() time.Duration
	// SlowEval, when > 0, logs a warning through Logger whenever a CatEval
	// span's duration reaches it — the "one corner is pathologically slow"
	// signal a progress bar hides.
	SlowEval time.Duration
	// Logger receives the slow-eval warnings (nil = slog.Default()). Only
	// consulted when SlowEval > 0.
	Logger *slog.Logger
}

// Recorder collects spans into a fixed ring and owns the run's metrics
// Registry. All methods are safe for concurrent use and are no-ops on a
// nil receiver, so instrumented code never branches on "is telemetry on".
type Recorder struct {
	clock    func() time.Duration
	slowEval time.Duration
	logger   *slog.Logger
	reg      *Registry

	nextID  atomic.Uint64
	dropped atomic.Uint64

	mu   sync.Mutex
	ring []Span
	head int // next write slot
	n    int // valid spans in the ring
}

// NewRecorder returns a recorder with its own metrics Registry.
func NewRecorder(opts RecorderOptions) *Recorder {
	cap := opts.Capacity
	if cap <= 0 {
		cap = DefaultCapacity
	}
	clock := opts.Clock
	if clock == nil {
		epoch := time.Now()
		clock = func() time.Duration { return time.Since(epoch) }
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	r := &Recorder{
		clock:    clock,
		slowEval: opts.SlowEval,
		logger:   logger,
		reg:      NewRegistry(),
		ring:     make([]Span, cap),
	}
	r.reg.CounterOf("optima_obs_spans_dropped_total",
		"spans overwritten because the recorder's ring was full", &r.dropped)
	return r
}

// Metrics returns the recorder's metrics registry (nil for a nil
// recorder — and every Registry method is nil-safe in turn).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Now reads the recorder's clock (0 for a nil recorder). Instrumented
// packages use it for queue-wait measurements instead of the wall clock.
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return r.clock()
}

// Dropped reports how many spans the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// StartSpan opens a span under parent (0 = root) with an optional
// human-readable argument. The returned Timer is a value — no allocation —
// and its ID is assigned now, so children can parent on a still-open span.
func (r *Recorder) StartSpan(parent SpanID, cat, name, arg string) Timer {
	if r == nil {
		return Timer{}
	}
	return Timer{
		rec:    r,
		id:     SpanID(r.nextID.Add(1)),
		parent: parent,
		cat:    cat,
		name:   name,
		arg:    arg,
		start:  r.clock(),
	}
}

// AddSpan records an already-measured span of the given duration ending
// now on the recorder's clock, returning its ID. It is the ingestion path
// for spans timed elsewhere — the remote coordinator records each
// worker-reported evaluation duration under its dispatch span without
// pretending to have observed the start. Nil-safe: a nil recorder returns
// 0 and records nothing.
func (r *Recorder) AddSpan(parent SpanID, cat, name, arg string, dur time.Duration) SpanID {
	if r == nil {
		return 0
	}
	if dur < 0 {
		dur = 0
	}
	id := SpanID(r.nextID.Add(1))
	start := r.clock() - dur
	if start < 0 {
		start = 0
	}
	r.record(Span{ID: id, Parent: parent, Cat: cat, Name: name, Arg: arg, Start: start, Dur: dur})
	return id
}

// record appends a completed span to the ring, overwriting the oldest
// when full.
func (r *Recorder) record(s Span) {
	r.mu.Lock()
	r.ring[r.head] = s
	r.head = (r.head + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.dropped.Add(1)
}

// Snapshot returns the completed spans currently in the ring, oldest
// first (recording order — the order spans ended). Nil-safe.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// Timer is an open span: a plain value holding the span's identity and
// start time. End records the span. The zero Timer (from a nil recorder)
// is inert: End returns 0 and records nothing.
type Timer struct {
	rec    *Recorder
	id     SpanID
	parent SpanID
	cat    string
	name   string
	arg    string
	start  time.Duration
}

// ID returns the span's ID (0 for an inert timer), valid as a parent for
// child spans before the timer ends.
func (t Timer) ID() SpanID { return t.id }

// End records the span and returns its duration. A span whose clock ran
// backwards (a misbehaving injected clock) is clamped to zero duration so
// exported traces stay well-formed.
func (t Timer) End() time.Duration {
	if t.rec == nil {
		return 0
	}
	d := t.rec.clock() - t.start
	if d < 0 {
		d = 0
	}
	t.rec.record(Span{
		ID: t.id, Parent: t.parent,
		Cat: t.cat, Name: t.name, Arg: t.arg,
		Start: t.start, Dur: d,
	})
	if t.cat == CatEval && t.rec.slowEval > 0 && d >= t.rec.slowEval {
		t.rec.logger.Warn("slow evaluation",
			"backend", t.name, "corner", t.arg,
			"duration", d, "threshold", t.rec.slowEval)
	}
	return d
}

// Subtree returns the spans of the tree rooted at root (root included),
// in the input's order — the per-job filter behind the server's
// GET .../trace endpoint. Spans whose ancestors were overwritten by ring
// overflow are not reachable and are omitted.
func Subtree(spans []Span, root SpanID) []Span {
	if root == 0 {
		return nil
	}
	in := map[SpanID]bool{root: true}
	// Parent IDs are assigned before child IDs, and one pass in ID order
	// would suffice if the ring preserved it; recording order does not, so
	// iterate to a fixed point (tree depth passes at most).
	for {
		grew := false
		for _, s := range spans {
			if !in[s.ID] && (in[s.Parent] || s.ID == root) {
				in[s.ID] = true
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	out := make([]Span, 0, len(in))
	for _, s := range spans {
		if in[s.ID] {
			out = append(out, s)
		}
	}
	return out
}

// FormatDuration renders a duration for span arguments and log lines with
// stable precision (µs below a millisecond, ms below a second, seconds
// above), so summary tables align.
//
//lint:ignore unusedapi bench/ (a separate module) prints its self-time table with it
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
