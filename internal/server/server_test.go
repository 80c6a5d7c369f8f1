package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optima/internal/core"
	"optima/internal/engine"
	"optima/internal/exp"
	"optima/internal/search"
)

var (
	modelOnce sync.Once
	model     *core.Model
	modelErr  error
)

func testModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		model, modelErr = core.Calibrate(core.QuickCalibration())
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

func testExp(t testing.TB) *exp.Context {
	t.Helper()
	return exp.NewContextWithModel(testModel(t), core.QuickCalibration().Tech)
}

// --- HTTP helpers ------------------------------------------------------

func postJSON(t testing.TB, url string, body any, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if body == nil {
		data = nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s response %q: %v", url, buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func doDelete(t testing.TB, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func createSession(t testing.TB, base string) string {
	t.Helper()
	var sess SessionStatus
	if code, body := postJSON(t, base+"/api/sessions", nil, &sess); code != http.StatusCreated {
		t.Fatalf("create session: %d %s", code, body)
	}
	return sess.ID
}

func submitJob(t testing.TB, base, sid string, req map[string]any) string {
	t.Helper()
	var st JobStatus
	if code, body := postJSON(t, base+"/api/sessions/"+sid+"/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit job: %d %s", code, body)
	}
	return st.ID
}

// eventsURL is a job's event-stream endpoint.
func eventsURL(base, sid, jid string) string {
	return base + "/api/sessions/" + sid + "/jobs/" + jid + "/events"
}

// watchToTerminal follows a job's event stream to its terminal event and
// returns every event seen.
func watchToTerminal(t testing.TB, base, sid, jid string) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	events, err := FollowEvents(ctx, eventsURL(base, sid, jid))
	if err != nil {
		t.Fatalf("job %s: stream failed after %d events: %v", jid, len(events), err)
	}
	return events
}

func jobStatus(t testing.TB, base, sid, jid string) JobStatus {
	t.Helper()
	var st JobStatus
	if code := getJSON(t, base+"/api/sessions/"+sid+"/jobs/"+jid, &st); code != http.StatusOK {
		t.Fatalf("get job: %d", code)
	}
	return st
}

// --- end-to-end acceptance --------------------------------------------

// TestServerCrossSessionDedupe is the acceptance scenario: two sessions
// submit overlapping sweep jobs concurrently; because every session shares
// one engine, each distinct (config, condition) cell is evaluated exactly
// once — the second claimant is served as a cache hit — and both jobs
// return identical results.
func TestServerCrossSessionDedupe(t *testing.T) {
	srv := New(testExp(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sidA := createSession(t, ts.URL)
	sidB := createSession(t, ts.URL)
	req := map[string]any{
		"kind":   "sweep",
		"tau0":   "0.16:0.28:6",
		"vdac0":  "0.3,0.4,0.5",
		"vdacfs": "0.8,1.0",
	} // 36 cells at the nominal condition

	var jidA, jidB string
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); jidA = submitJob(t, ts.URL, sidA, req) }()
	go func() { defer wg.Done(); jidB = submitJob(t, ts.URL, sidB, req) }()
	wg.Wait()
	evA := watchToTerminal(t, ts.URL, sidA, jidA)
	evB := watchToTerminal(t, ts.URL, sidB, jidB)
	if last := evA[len(evA)-1]; last.Type != EventDone {
		t.Fatalf("job A ended %q (%s)", last.Type, last.Error)
	}
	if last := evB[len(evB)-1]; last.Type != EventDone {
		t.Fatalf("job B ended %q (%s)", last.Type, last.Error)
	}

	// Exactly-once evaluation across sessions: 72 submitted cells, 36
	// distinct — the engine must report 36 evaluated, 36 deduped.
	var status StatusResponse
	if code := getJSON(t, ts.URL+"/api/status", &status); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if status.Engine.Misses != 36 {
		t.Fatalf("engine evaluated %d cells, want 36 (cross-session dedupe)", status.Engine.Misses)
	}
	if status.Engine.Hits != 36 {
		t.Fatalf("engine deduped %d cells, want 36", status.Engine.Hits)
	}

	// Both sessions got byte-identical payloads.
	stA := jobStatus(t, ts.URL, sidA, jidA)
	stB := jobStatus(t, ts.URL, sidB, jidB)
	if !bytes.Equal(stA.Result, stB.Result) {
		t.Fatal("overlapping sweeps returned different results")
	}
	var res SweepResult
	if err := json.Unmarshal(stA.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 36 {
		t.Fatalf("sweep returned %d points, want 36", len(res.Points))
	}
}

// TestServerSearchMatchesDirectRun: a search job's result is byte-identical
// to search.Run through the library at a different worker count (the
// CLI-parity and worker-invariance acceptance criterion), and its rung
// events arrive on the event stream in rung order, matching the result's
// trace.
func TestServerSearchMatchesDirectRun(t *testing.T) {
	srv := New(testExp(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const tau0, vdac0, vdacfs = "0.16:0.28:8", "0.3,0.4,0.5", "0.8,1.0"
	sid := createSession(t, ts.URL)
	jid := submitJob(t, ts.URL, sid, map[string]any{
		"kind": "search", "tau0": tau0, "vdac0": vdac0, "vdacfs": vdacfs,
		"rungs": 2, "seed": 7,
	})
	events := watchToTerminal(t, ts.URL, sid, jid)
	if last := events[len(events)-1]; last.Type != EventDone {
		t.Fatalf("search job ended %q (%s)", last.Type, last.Error)
	}

	st := jobStatus(t, ts.URL, sid, jid)
	var report search.JSONReport
	if err := json.Unmarshal(st.Result, &report); err != nil {
		t.Fatal(err)
	}

	// Rung events: one per trace rung, in order, with matching stats.
	var rungs []search.RungStats
	for _, ev := range events {
		if ev.Type == EventRung {
			rungs = append(rungs, *ev.Rung)
		}
	}
	if len(rungs) != len(report.Trace.Rungs) {
		t.Fatalf("streamed %d rung events, trace has %d rungs", len(rungs), len(report.Trace.Rungs))
	}
	for i, rs := range rungs {
		if rs != report.Trace.Rungs[i] {
			t.Fatalf("rung event %d = %+v, trace says %+v", i, rs, report.Trace.Rungs[i])
		}
	}
	// Progress events are monotone within each rung.
	prev := map[int]int{}
	for _, ev := range events {
		if ev.Type != EventProgress {
			continue
		}
		if ev.Done <= prev[ev.RungIndex] {
			t.Fatalf("rung %d progress went %d after %d", ev.RungIndex, ev.Done, prev[ev.RungIndex])
		}
		prev[ev.RungIndex] = ev.Done
	}

	// Library parity: same options, different engine, ONE worker — the
	// result must be byte-identical to the server's (which ran at the
	// default worker count).
	space, err := search.ParseSpaceSpec(tau0, vdac0, vdacfs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(context.Background(), search.Options{
		Space:      space,
		Screen:     engine.New(engine.Behavioral{Model: testModel(t)}, 1),
		Conditions: engine.NominalConditions(),
		Rungs:      2,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(search.NewJSONReport(res))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Result, want) {
		t.Fatalf("server search result differs from direct run:\nserver: %s\ndirect: %s", st.Result, want)
	}
}

// --- session semantics and cancellation --------------------------------

// gateBackend blocks evaluations on a release gate so tests can observe a
// job verifiably mid-flight.
type gateBackend struct {
	started chan struct{}
	release chan struct{}
	evals   atomic.Int64
}

func newGateBackend() *gateBackend {
	return &gateBackend{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gateBackend) Name() string { return "gate" }

func (g *gateBackend) EvaluateCell(_ engine.Eval, j engine.Job) (engine.Metrics, error) {
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.release
	g.evals.Add(1)
	return engine.Metrics{Config: j.Config, Cond: j.Cond, EpsMul: j.Config.Tau0 * 1e9, EMul: j.Config.VDACFS * 1e-15}, nil
}

// TestServerSessionBusyAndCancel covers the one-operation-per-session
// contract and the cancellation satellite: a DELETE mid-sweep stops the
// job promptly (in-flight evaluations complete, the rest are abandoned),
// and a rerun in the same session completes from the warm cache with
// strictly fewer backend evaluations.
func TestServerSessionBusyAndCancel(t *testing.T) {
	leakCheck(t)
	gate := newGateBackend()
	gateEng := engine.New(gate, 2)
	srv := New(testExp(t))
	srv.engineFor = func(string) (*engine.Engine, error) { return gateEng, nil }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sid := createSession(t, ts.URL)
	req := map[string]any{
		"kind":   "sweep",
		"tau0":   "0.16:0.28:4",
		"vdac0":  "0.3,0.4",
		"vdacfs": "0.8,1.0",
	} // 16 cells
	jid := submitJob(t, ts.URL, sid, req)
	<-gate.started // the job is verifiably mid-rung

	// One active operation per session: a concurrent submission conflicts.
	if code, body := postJSON(t, ts.URL+"/api/sessions/"+sid+"/jobs", req, nil); code != http.StatusConflict {
		t.Fatalf("submit into a busy session: %d %s, want 409", code, body)
	}

	// DELETE cancels; in-flight evaluations are released and complete.
	if code := doDelete(t, ts.URL+"/api/sessions/"+sid+"/jobs/"+jid); code != http.StatusAccepted {
		t.Fatalf("cancel: %d, want 202", code)
	}
	close(gate.release)
	events := watchToTerminal(t, ts.URL, sid, jid)
	if last := events[len(events)-1]; last.Type != EventCanceled {
		t.Fatalf("canceled job ended %q (%s)", last.Type, last.Error)
	}
	st := jobStatus(t, ts.URL, sid, jid)
	if st.State != JobCanceled || !strings.Contains(st.Error, "canceled") {
		t.Fatalf("job state %q error %q, want canceled", st.State, st.Error)
	}
	completed := gate.evals.Load()
	if completed < 1 || completed >= 16 {
		t.Fatalf("canceled sweep completed %d evaluations, want some but not all of 16", completed)
	}

	// The session is free again; the rerun resumes from the warm cache —
	// the finished work is served, only the abandoned cells re-evaluate.
	jid2 := submitJob(t, ts.URL, sid, req)
	events = watchToTerminal(t, ts.URL, sid, jid2)
	if last := events[len(events)-1]; last.Type != EventDone {
		t.Fatalf("rerun ended %q (%s)", last.Type, last.Error)
	}
	st2 := jobStatus(t, ts.URL, sid, jid2)
	if st2.Stats == nil {
		t.Fatal("finished job carries no stats")
	}
	if st2.Stats.Misses != uint64(16-completed) {
		t.Fatalf("rerun evaluated %d cells, want %d (16 minus the %d completed before cancellation)",
			st2.Stats.Misses, 16-completed, completed)
	}
	if st2.Stats.Hits != uint64(completed) {
		t.Fatalf("rerun served %d cells from cache, want %d", st2.Stats.Hits, completed)
	}
	if total := gate.evals.Load(); total != 16 {
		t.Fatalf("%d backend evaluations across cancel + rerun, want exactly 16", total)
	}
	var res SweepResult
	if err := json.Unmarshal(st2.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 16 {
		t.Fatalf("rerun returned %d points, want 16", len(res.Points))
	}
}

// --- validation and status ---------------------------------------------

func TestServerRequestValidation(t *testing.T) {
	srv := New(testExp(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sid := createSession(t, ts.URL)
	jobsURL := ts.URL + "/api/sessions/" + sid + "/jobs"

	cases := []struct {
		name string
		req  map[string]any
		want string
	}{
		{"unknown kind", map[string]any{"kind": "frobnicate"}, "unknown job kind"},
		{"bad axis", map[string]any{"kind": "sweep", "tau0": "a:b:c"}, "axis tau0"},
		{"bad backend", map[string]any{"kind": "sweep", "backend": "spicy"}, "unknown backend"},
		{"sweep multi-condition", map[string]any{"kind": "sweep", "conditions": "TT@1.0V@27C,SS@0.90V@60C"}, "use kind=matrix"},
		{"bad conditions", map[string]any{"kind": "matrix", "conditions": "banana"}, "condition"},
		{"negative budget", map[string]any{"kind": "search", "budget": -3}, "budget -3"},
		{"sub-unity eta", map[string]any{"kind": "search", "eta": 0.5}, "must exceed 1"},
		{"unknown field", map[string]any{"kind": "sweep", "bogus": true}, "bogus"},
		{"oversized body", map[string]any{"kind": "sweep", "tau0": strings.Repeat("0.2,", maxRequestBytes/4+1)}, "too large"},
		// 100000 × 3 × 4 default corners at one condition: 1.2M cells. The
		// check must reject it from the axis specs, before materializing.
		{"oversized plane", map[string]any{"kind": "sweep", "tau0": "0.16:0.28:100000"}, "exceeds the 1048576-cell limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, jobsURL, tc.req, nil)
			if code != http.StatusBadRequest {
				t.Fatalf("%d %s, want 400", code, body)
			}
			if !strings.Contains(body, tc.want) {
				t.Fatalf("error %q does not mention %q", body, tc.want)
			}
		})
	}

	if code, _ := postJSON(t, ts.URL+"/api/sessions/nope/jobs", map[string]any{"kind": "sweep"}, nil); code != http.StatusNotFound {
		t.Fatalf("submit to unknown session: %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/api/sessions/"+sid+"/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("get unknown job: %d, want 404", code)
	}
}

// TestServerConcurrentSessionDelete: of two concurrent DELETEs of one
// session exactly one tears it down (204) and the other gets 404, so the
// live-sessions gauge never goes negative. Holding the session's own lock
// parks the tearing-down handler in cancelActive; the other must answer
// 404 meanwhile — a check-then-delete handler parks both there instead.
func TestServerConcurrentSessionDelete(t *testing.T) {
	srv := New(testExp(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sid := createSession(t, ts.URL)
	srv.mu.Lock()
	sess := srv.sessions[sid]
	srv.mu.Unlock()
	codes := make(chan int, 2)
	sess.mu.Lock()
	for range 2 {
		go func() {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/sessions/"+sid, nil))
			codes <- rec.Code
		}()
	}
	var first int
	select {
	case first = <-codes:
	case <-time.After(5 * time.Second):
		sess.mu.Unlock()
		t.Fatal("no DELETE answered while one was tearing the session down: both passed the lookup")
	}
	sess.mu.Unlock()
	if second := <-codes; first != http.StatusNotFound || second != http.StatusNoContent {
		t.Fatalf("concurrent DELETEs answered %d then %d, want 404 then 204", first, second)
	}
	if v := srv.rec.Metrics().Gauge("optima_sessions_active", "").Value(); v != 0 {
		t.Fatalf("optima_sessions_active = %v after deleting the session, want 0", v)
	}
}

// TestServerStatusStoreDegradation: a cache directory that cannot open
// degrades the server to memory-only, and GET /api/status says so — the
// exp.Context.StoreError surface.
func TestServerStatusStoreDegradation(t *testing.T) {
	ctx := testExp(t)
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx.CacheDir = filepath.Join(blocker, "cache") // MkdirAll through a file fails
	srv := New(ctx)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var status StatusResponse
	if code := getJSON(t, ts.URL+"/api/status", &status); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if status.Store.Persistent {
		t.Fatal("status claims a persistent store despite the open failure")
	}
	if !strings.Contains(status.Store.Error, "persistent result store disabled") {
		t.Fatalf("store error %q does not surface the degradation", status.Store.Error)
	}
}

// TestServerShutdownCancelsJobs: a shutdown deadline cancels running jobs
// and still drains cleanly.
func TestServerShutdownCancelsJobs(t *testing.T) {
	leakCheck(t)
	gate := newGateBackend()
	gateEng := engine.New(gate, 2)
	srv := New(testExp(t))
	srv.engineFor = func(string) (*engine.Engine, error) { return gateEng, nil }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sid := createSession(t, ts.URL)
	jid := submitJob(t, ts.URL, sid, map[string]any{
		"kind": "sweep", "tau0": "0.16:0.28:4", "vdac0": "0.3,0.4", "vdacfs": "0.8,1.0",
	})
	<-gate.started

	shutCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// The gate stays closed until the deadline forces cancellation; then
	// release the in-flight evaluations so the drain can finish.
	time.AfterFunc(100*time.Millisecond, func() { close(gate.release) })
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := jobStatus(t, ts.URL, sid, jid); st.State != JobCanceled {
		t.Fatalf("job state after deadline shutdown: %q, want canceled", st.State)
	}
	if code, _ := postJSON(t, ts.URL+"/api/sessions", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create session on a closing server: %d, want 503", code)
	}
}

// TestServerMatrixJob: the cross-condition plane end to end — a matrix job
// returns one robust summary per corner spanning the condition set.
func TestServerMatrixJob(t *testing.T) {
	srv := New(testExp(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sid := createSession(t, ts.URL)
	jid := submitJob(t, ts.URL, sid, map[string]any{
		"kind":       "matrix",
		"tau0":       "0.16:0.28:4",
		"vdac0":      "0.3,0.4",
		"vdacfs":     "0.8,1.0",
		"conditions": "TT@1.0V@27C,SS@0.90V@60C,FF@1.10V@0C",
	})
	events := watchToTerminal(t, ts.URL, sid, jid)
	if last := events[len(events)-1]; last.Type != EventDone {
		t.Fatalf("matrix job ended %q (%s)", last.Type, last.Error)
	}
	var res MatrixResult
	if err := json.Unmarshal(jobStatus(t, ts.URL, sid, jid).Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Robust) != 16 {
		t.Fatalf("matrix returned %d robust summaries, want 16", len(res.Robust))
	}
	if !strings.Contains(res.Conditions, "SS@0.9V@60C") {
		t.Fatalf("result conditions %q missing the set", res.Conditions)
	}
	for i, r := range res.Robust {
		if r.WorstEpsCond == "" {
			t.Fatalf("robust summary %d has no arg-worst condition", i)
		}
	}
}
