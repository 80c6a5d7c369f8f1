package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a deterministic manual clock for exact span timings.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) read() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func newFakeRecorder(cap int) (*Recorder, *fakeClock) {
	clk := &fakeClock{}
	return NewRecorder(RecorderOptions{Capacity: cap, Clock: clk.read}), clk
}

func TestSpanTiming(t *testing.T) {
	rec, clk := newFakeRecorder(8)
	clk.advance(5 * time.Millisecond)
	outer := rec.StartSpan(0, CatBatch, "sweep", "48 jobs")
	clk.advance(time.Millisecond)
	inner := rec.StartSpan(outer.ID(), CatEval, "behavioral", "")
	clk.advance(2 * time.Millisecond)
	if d := inner.End(); d != 2*time.Millisecond {
		t.Fatalf("inner duration = %v, want 2ms", d)
	}
	clk.advance(time.Millisecond)
	if d := outer.End(); d != 4*time.Millisecond {
		t.Fatalf("outer duration = %v, want 4ms", d)
	}

	spans := rec.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot has %d spans, want 2", len(spans))
	}
	// Recording order: inner ended first.
	if spans[0].Name != "behavioral" || spans[0].Parent != outer.ID() {
		t.Fatalf("inner span = %+v", spans[0])
	}
	if spans[1].Start != 5*time.Millisecond || spans[1].Arg != "48 jobs" {
		t.Fatalf("outer span = %+v", spans[1])
	}
	// Parent contains child on the shared timeline.
	if spans[0].Start < spans[1].Start || spans[0].End() > spans[1].End() {
		t.Fatalf("child [%v,%v] escapes parent [%v,%v]",
			spans[0].Start, spans[0].End(), spans[1].Start, spans[1].End())
	}
}

func TestRingOverflow(t *testing.T) {
	rec, clk := newFakeRecorder(4)
	for i := 0; i < 10; i++ {
		tm := rec.Start(CatEval, "e")
		clk.advance(time.Microsecond)
		tm.End()
	}
	spans := rec.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("snapshot has %d spans, want 4", len(spans))
	}
	if rec.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", rec.Dropped())
	}
	// The survivors are the newest four, oldest first.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("snapshot out of order: %v after %v", spans[i].Start, spans[i-1].Start)
		}
	}
	if got := rec.Metrics().Counter("optima_obs_spans_dropped_total", "").Value(); got != 6 {
		t.Fatalf("dropped counter = %v, want 6", got)
	}
}

func TestRecorderConcurrency(t *testing.T) {
	rec := NewRecorder(RecorderOptions{Capacity: 64})
	reg := rec.Metrics()
	ctr := reg.Counter("c_total", "c")
	g := reg.Gauge("g", "g")
	h := reg.Histogram("h_seconds", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine also owns a count attached to the same series,
			// read by concurrent scrapes.
			var own atomic.Uint64
			reg.CounterOf("c_total", "c", &own)
			for i := 0; i < 500; i++ {
				tm := rec.Start(CatEval, "e")
				ctr.Inc()
				own.Add(1)
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i) * 1e-6)
				tm.End()
				if i%100 == 0 {
					reg.Samples()
				}
			}
		}()
	}
	wg.Wait()
	if got := ctr.Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000 (4000 Incs + 4000 attached)", got)
	}
	if got := h.Count(); got != 4000 {
		t.Fatalf("histogram count = %d, want 4000", got)
	}
	if n := len(rec.Snapshot()); n != 64 {
		t.Fatalf("snapshot has %d spans, want full ring of 64", n)
	}
	if rec.Dropped() != 4000-64 {
		t.Fatalf("dropped = %d, want %d", rec.Dropped(), 4000-64)
	}
}

func TestSlowEvalWarning(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	clk := &fakeClock{}
	rec := NewRecorder(RecorderOptions{
		Clock:    clk.read,
		SlowEval: 10 * time.Millisecond,
		Logger:   logger,
	})

	fast := rec.StartSpan(0, CatEval, "behavioral", "cfg@nominal")
	clk.advance(time.Millisecond)
	fast.End()
	if buf.Len() != 0 {
		t.Fatalf("fast eval logged: %q", buf.String())
	}

	slow := rec.StartSpan(0, CatEval, "golden", "cfg@hot")
	clk.advance(50 * time.Millisecond)
	slow.End()
	out := buf.String()
	if !strings.Contains(out, "slow evaluation") || !strings.Contains(out, "golden") {
		t.Fatalf("slow eval warning missing from log: %q", out)
	}

	// Non-eval categories never warn, however long.
	buf.Reset()
	batch := rec.Start(CatBatch, "sweep")
	clk.advance(time.Minute)
	batch.End()
	if buf.Len() != 0 {
		t.Fatalf("batch span logged a slow-eval warning: %q", buf.String())
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	if rec.Now() != 0 || rec.Dropped() != 0 || rec.Snapshot() != nil {
		t.Fatal("nil recorder reads are not zero")
	}
	tm := rec.StartSpan(0, CatEval, "e", "")
	if tm.ID() != 0 || tm.End() != 0 {
		t.Fatal("nil recorder timer is not inert")
	}
	reg := rec.Metrics()
	if reg != nil {
		t.Fatal("nil recorder returned a registry")
	}
	reg.Counter("c_total", "c").Inc()
	reg.Gauge("g", "g").Set(3)
	reg.Histogram("h", "h", nil).Observe(1)
	reg.GaugeFunc("gf", "gf", func() float64 { return 1 })
	reg.CounterOf("co_total", "co", new(atomic.Uint64))
	if reg.Samples() != nil {
		t.Fatal("nil registry produced samples")
	}
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil || out.Len() != 0 {
		t.Fatalf("nil registry wrote exposition: %v %q", err, out.String())
	}
	if err := rec.WriteTrace(&out); err != nil {
		t.Fatalf("nil recorder trace export: %v", err)
	}
}

var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+0-9.eE]+|\+Inf)$`)
)

// ValidateExposition checks every line of a Prometheus text exposition
// body; shared with the server endpoint test and the smoke client's logic.
func validateExposition(t *testing.T, body string) {
	t.Helper()
	if body == "" {
		t.Fatal("empty exposition body")
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if helpRe.MatchString(line) || typeRe.MatchString(line) || sampleRe.MatchString(line) {
			continue
		}
		t.Fatalf("malformed exposition line: %q", line)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("optima_evals_total", "evals", "backend", "behavioral").Add(42)
	reg.Counter("optima_evals_total", "evals", "backend", "golden").Add(7)
	reg.Gauge("optima_workers_busy", "busy").Set(3)
	reg.GaugeFunc("optima_hub_topics", "topics", func() float64 { return 2 })
	h := reg.Histogram("optima_eval_duration_seconds", "dur", nil, "backend", "behavioral")
	h.Observe(0.5e-3)
	h.Observe(2.0)

	var b1 bytes.Buffer
	if err := reg.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	out := b1.String()
	validateExposition(t, out)

	for _, want := range []string{
		`optima_evals_total{backend="behavioral"} 42`,
		`optima_evals_total{backend="golden"} 7`,
		`optima_workers_busy 3`,
		`optima_hub_topics 2`,
		"# TYPE optima_eval_duration_seconds histogram",
		`optima_eval_duration_seconds_bucket{backend="behavioral",le="0.001"} 1`,
		`optima_eval_duration_seconds_bucket{backend="behavioral",le="+Inf"} 2`,
		`optima_eval_duration_seconds_count{backend="behavioral"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Deterministic: a second render is byte-identical.
	var b2 bytes.Buffer
	if err := reg.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two renders of the same registry differ")
	}

	// Registration is idempotent: same (name, labels) is the same series.
	reg.Counter("optima_evals_total", "evals", "backend", "behavioral").Add(1)
	var b3 bytes.Buffer
	if err := reg.WritePrometheus(&b3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b3.String(), `optima_evals_total{backend="behavioral"} 43`) {
		t.Fatalf("re-registered counter did not accumulate:\n%s", b3.String())
	}
}

func TestSamples(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "b").Add(2)
	reg.Counter("a_total", "a") // zero — omitted
	reg.Gauge("c", "c").Set(1.5)
	h := reg.Histogram("d_seconds", "d", nil)
	h.Observe(0.25)
	h.Observe(0.75)

	got := reg.Samples()
	want := []Sample{
		{"b_total", 2},
		{"c", 1.5},
		{"d_seconds_count", 2},
		{"d_seconds_sum", 1.0},
	}
	if len(got) != len(want) {
		t.Fatalf("samples = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].Name != want[i].Name || math.Abs(got[i].Value-want[i].Value) > 1e-12 {
			t.Fatalf("samples[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWriteTrace(t *testing.T) {
	rec, clk := newFakeRecorder(32)
	batch := rec.StartSpan(0, CatBatch, "sweep", "2 jobs")
	clk.advance(time.Millisecond)
	e1 := rec.StartSpan(batch.ID(), CatEval, "behavioral", "cfg1")
	clk.advance(3 * time.Millisecond)
	e1.End()
	e2 := rec.StartSpan(batch.ID(), CatEval, "behavioral", "cfg2")
	clk.advance(2 * time.Millisecond)
	e2.End()
	clk.advance(time.Millisecond)
	batch.End()

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) != 3 {
		t.Fatalf("trace has %d events, want 3", len(tf.TraceEvents))
	}
	byName := map[string][]int{}
	for i, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %d phase = %q, want X", i, ev.Ph)
		}
		if ev.Dur < 0 || ev.Ts < 0 {
			t.Fatalf("event %d has negative time: ts=%v dur=%v", i, ev.Ts, ev.Dur)
		}
		byName[ev.Name] = append(byName[ev.Name], i)
	}
	sweep := tf.TraceEvents[byName["sweep"][0]]
	if sweep.Dur != 7000 { // 7ms in µs
		t.Fatalf("sweep dur = %v µs, want 7000", sweep.Dur)
	}
	// Children nest inside the parent's lane and time range.
	for _, i := range byName["behavioral"] {
		ev := tf.TraceEvents[i]
		if ev.Tid != sweep.Tid {
			t.Fatalf("child event in lane %d, parent in %d", ev.Tid, sweep.Tid)
		}
		if ev.Ts < sweep.Ts || ev.Ts+ev.Dur > sweep.Ts+sweep.Dur {
			t.Fatalf("child [%v,%v] escapes parent [%v,%v]",
				ev.Ts, ev.Ts+ev.Dur, sweep.Ts, sweep.Ts+sweep.Dur)
		}
		if ev.Args["parent"].(float64) != float64(batch.ID()) {
			t.Fatalf("child parent arg = %v, want %d", ev.Args["parent"], batch.ID())
		}
	}
}

func TestTraceLanesOverlap(t *testing.T) {
	// Two root spans overlapping in time must land in different lanes.
	rec, clk := newFakeRecorder(8)
	a := rec.Start(CatEval, "a")
	clk.advance(time.Millisecond)
	b := rec.Start(CatEval, "b")
	clk.advance(time.Millisecond)
	a.End()
	clk.advance(time.Millisecond)
	b.End()

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	for _, ev := range tf.TraceEvents {
		tids[ev.Name] = ev.Tid
	}
	if tids["a"] == tids["b"] {
		t.Fatalf("overlapping roots share lane %d", tids["a"])
	}
}

func TestSubtree(t *testing.T) {
	rec, clk := newFakeRecorder(32)
	job1 := rec.StartSpan(0, CatJob, "job-1", "")
	j1batch := rec.StartSpan(job1.ID(), CatBatch, "sweep", "")
	j1eval := rec.StartSpan(j1batch.ID(), CatEval, "behavioral", "")
	job2 := rec.StartSpan(0, CatJob, "job-2", "")
	j2eval := rec.StartSpan(job2.ID(), CatEval, "behavioral", "")
	clk.advance(time.Millisecond)
	// End out of order so recording order != ID order.
	j2eval.End()
	j1eval.End()
	j1batch.End()
	job2.End()
	job1.End()

	spans := rec.Snapshot()
	sub := Subtree(spans, job1.ID())
	if len(sub) != 3 {
		t.Fatalf("subtree has %d spans, want 3", len(sub))
	}
	for _, s := range sub {
		if s.ID == job2.ID() || s.Parent == job2.ID() {
			t.Fatalf("job-2 span %+v leaked into job-1's subtree", s)
		}
	}
	if got := Subtree(spans, 0); got != nil {
		t.Fatalf("subtree of root 0 = %+v, want nil", got)
	}
}

func TestFormatDuration(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "0.5µs"},
		{250 * time.Microsecond, "250.0µs"},
		{15 * time.Millisecond, "15.00ms"},
		{3 * time.Second, "3.00s"},
	} {
		if got := FormatDuration(tc.d); got != tc.want {
			t.Fatalf("FormatDuration(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestCounterOfOwnersSum: a series reads its attached owner counts at
// scrape time — two owners of one series add up, and the series' own Add
// total adds to theirs.
func TestCounterOfOwnersSum(t *testing.T) {
	reg := NewRegistry()
	var a, b atomic.Uint64
	reg.CounterOf("optima_evals_total", "evals", &a, "backend", "fake")
	reg.CounterOf("optima_evals_total", "evals", &b, "backend", "fake")
	a.Add(3)
	b.Add(4)
	c := reg.Counter("optima_evals_total", "evals", "backend", "fake")
	if got := c.Value(); got != 7 {
		t.Fatalf("two owners: Value = %v, want 7", got)
	}
	c.Add(1)
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if want := `optima_evals_total{backend="fake"} 8`; !strings.Contains(out.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, out.String())
	}
	if s := reg.Samples(); len(s) != 1 || s[0].Value != 8 {
		t.Fatalf("samples %v, want one row of 8", s)
	}
}

// TestCounterOfSamePointerOnce: attaching one count twice — an engine
// re-wired to the same recorder — does not double it.
func TestCounterOfSamePointerOnce(t *testing.T) {
	reg := NewRegistry()
	var n atomic.Uint64
	reg.CounterOf("optima_store_errors_total", "errs", &n)
	reg.CounterOf("optima_store_errors_total", "errs", &n)
	n.Add(2)
	if got := reg.Counter("optima_store_errors_total", "").Value(); got != 2 {
		t.Fatalf("Value = %v, want 2", got)
	}
}

// TestGaugeFuncValue: a lookup of a GaugeFunc series reads the function.
func TestGaugeFuncValue(t *testing.T) {
	reg := NewRegistry()
	v := 1.0
	reg.GaugeFunc("optima_sessions_active", "sessions", func() float64 { return v })
	v = 5
	if got := reg.Gauge("optima_sessions_active", "").Value(); got != 5 {
		t.Fatalf("looked-up gauge Value = %v, want 5", got)
	}
}
