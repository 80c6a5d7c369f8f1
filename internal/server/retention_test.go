package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"optima/internal/engine"
)

// instantBackend scores a cell from its key alone, at once.
type instantBackend struct{}

func (instantBackend) Name() string { return "instant" }

func (instantBackend) EvaluateCell(_ engine.Eval, j engine.Job) (engine.Metrics, error) {
	return engine.Metrics{Config: j.Config, Cond: j.Cond, EpsMul: j.Config.Tau0 * 1e9, EMul: j.Config.VDACFS * 1e-15}, nil
}

// TestRetentionKeepsEachSessionsLatest: the budget evicts the oldest
// finished jobs first, skips every session's latest finished job however
// old, and forget stops accounting a deleted session's jobs.
func TestRetentionKeepsEachSessionsLatest(t *testing.T) {
	var r retention
	const size = resultBudget / 4
	idle := newJob("j0", "s-idle", KindSweep, nil, nil)
	if v := r.add(idle, size); len(v) != 0 {
		t.Fatalf("evicted %d jobs within the budget", len(v))
	}
	var evicted []string
	for i := 1; i <= 8; i++ {
		for _, v := range r.add(newJob(fmt.Sprintf("j%d", i), "s-busy", KindSweep, nil, nil), size) {
			evicted = append(evicted, v.id)
		}
		if r.bytes > resultBudget {
			t.Fatalf("after job %d: %d bytes retained, budget %d", i, r.bytes, resultBudget)
		}
	}
	// Four quarters fit: the idle job, then the busy session's newest three.
	if got := strings.Join(evicted, ","); got != "j1,j2,j3,j4,j5" {
		t.Fatalf("evicted %s, want the busy session's oldest first: j1,j2,j3,j4,j5", got)
	}
	if r.latest["s-idle"] != idle || r.order.Front().Value.(retainedJob).j != idle {
		t.Fatal("the idle session's only job was evicted")
	}
	r.forget("s-busy")
	if r.order.Len() != 1 || r.bytes != size || r.latest["s-busy"] != nil {
		t.Fatalf("after forgetting s-busy: %d jobs, %d bytes retained", r.order.Len(), r.bytes)
	}
}

// TestServerDeleteSessionWhileJobRuns: deleting a session while its job
// runs leaves no open stream once the job ends — its publishes after the
// drop do nothing — a stream opened on a dropped one answers 410 instead
// of waiting for events that never come, and a submission racing the
// delete is refused without leaving a stream.
func TestServerDeleteSessionWhileJobRuns(t *testing.T) {
	leakCheck(t)
	gate := newGateBackend()
	gateEng := engine.New(gate, 2)
	srv := New(testExp(t))
	srv.engineFor = func(string) (*engine.Engine, error) { return gateEng, nil }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sid := createSession(t, ts.URL)
	submitJob(t, ts.URL, sid, smallSweep)
	<-gate.started
	if code := doDelete(t, ts.URL+"/api/sessions/"+sid); code != http.StatusNoContent {
		t.Fatalf("delete session: %d, want 204", code)
	}
	close(gate.release)
	srv.jobWG.Wait()
	if topics := srv.sm.streams.open.Load(); topics != 0 {
		t.Fatalf("%d hub topics after the deleted session's job ended, want 0", topics)
	}
	if v := srv.rec.Metrics().Gauge("optima_hub_topics", "").Value(); v != 0 {
		t.Fatalf("optima_hub_topics = %v, want 0", v)
	}
	srv.mu.Lock()
	retained := srv.retained.order.Len()
	srv.mu.Unlock()
	if retained != 0 {
		t.Fatalf("%d jobs retained after their session was deleted", retained)
	}

	// A stream handler that looked its job up before the drop subscribes
	// after it: the stream is gone, so the answer is a 410, not a stream
	// that stays open until the client hangs up.
	sid = createSession(t, ts.URL)
	jid := submitJob(t, ts.URL, sid, smallSweep)
	watchToTerminal(t, ts.URL, sid, jid)
	srv.mu.Lock()
	sess := srv.sessions[sid]
	srv.mu.Unlock()
	sess.getJob(jid).dropEvents()
	code, _, body := getStream(t, eventsURL(ts.URL, sid, jid), "")
	if code != http.StatusGone || !strings.Contains(body, "dropped with its session") {
		t.Fatalf("events of a dropped stream: %d %s, want 410 saying it was dropped", code, body)
	}

	// A submission that looked its session up before a delete and begins
	// after it is refused, and opens no stream that nothing would drop.
	sess.close()
	if code, body := postJSON(t, ts.URL+"/api/sessions/"+sid+"/jobs", smallSweep, nil); code != http.StatusNotFound {
		t.Fatalf("submit into a closed session: %d %s, want 404", code, body)
	}
	if topics := srv.sm.streams.open.Load(); topics != 0 {
		t.Fatalf("%d hub topics after a refused submission, want 0", topics)
	}
}

// TestServerRetentionSoak: 2,000 jobs across four sessions on an instant
// backend. Retained result and event bytes stay within the budget plus each
// session's latest job, and open streams never outnumber the retained jobs
// plus two per session (the active job and the one being retained). An
// evicted job's GET says so, its events endpoint answers 410 at once, and
// resubmitting it returns the same result bytes from the cache. No
// goroutine outlives the test.
func TestServerRetentionSoak(t *testing.T) {
	leakCheck(t)
	eng := engine.New(instantBackend{}, 2)
	srv := New(testExp(t))
	srv.engineFor = func(string) (*engine.Engine, error) { return eng, nil }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()

	var specs []map[string]any
	for steps := 4; steps <= 16; steps++ {
		for _, vdac0 := range []string{"0.3,0.4", "0.3,0.4,0.5"} {
			specs = append(specs, map[string]any{"kind": "sweep",
				"tau0": fmt.Sprintf("0.16:0.28:%d", steps), "vdac0": vdac0, "vdacfs": "0.8,1.0"})
		}
	}
	const sessions, perSession = 4, 500
	type record struct {
		sid, jid string
		spec     int
	}
	var (
		mu      sync.Mutex
		records []record
		results = map[int][]byte{}
	)
	check := func() error {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		latest := 0
		for el := srv.retained.order.Front(); el != nil; el = el.Next() {
			if v := el.Value.(retainedJob); srv.retained.latest[v.j.sid] == v.j {
				latest += v.size
			}
		}
		if srv.retained.bytes > resultBudget+latest {
			return fmt.Errorf("%d bytes retained, budget %d plus %d of latest jobs", srv.retained.bytes, resultBudget, latest)
		}
		if topics := int(srv.sm.streams.open.Load()); topics > srv.retained.order.Len()+2*sessions {
			return fmt.Errorf("%d hub topics for %d retained jobs", topics, srv.retained.order.Len())
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for c := 0; c < sessions; c++ {
		sid := createSession(t, ts.URL)
		wg.Add(1)
		go func(c int, sid string) {
			defer wg.Done()
			for n := 0; n < perSession; n++ {
				spec := (c*7 + n*5) % len(specs)
				jid, res, err := runSoakJob(ts.URL, sid, specs[spec])
				if err == nil {
					err = check()
				}
				if err != nil {
					errs <- fmt.Errorf("session %s job %d: %w", sid, n, err)
					return
				}
				mu.Lock()
				records = append(records, record{sid, jid, spec})
				if prev, ok := results[spec]; !ok {
					results[spec] = res
				} else if !bytes.Equal(prev, res) {
					err = fmt.Errorf("spec %d returned different bytes in job %s", spec, jid)
				}
				mu.Unlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(c, sid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	srv.jobWG.Wait()
	if err := check(); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	retained := srv.retained.order.Len()
	srv.mu.Unlock()
	if topics := int(srv.sm.streams.open.Load()); topics != retained {
		t.Fatalf("%d hub topics at rest for %d retained jobs", topics, retained)
	}

	var evicted []record
	for _, r := range records {
		st := jobStatus(t, ts.URL, r.sid, r.jid)
		if st.ResultEvicted != (len(st.Result) == 0) || st.State != JobDone {
			t.Fatalf("job %s: state %s, result_evicted %v with %d result bytes", r.jid, st.State, st.ResultEvicted, len(st.Result))
		}
		if st.ResultEvicted {
			evicted = append(evicted, r)
		}
	}
	if len(evicted) == 0 || len(evicted)+retained != len(records) {
		t.Fatalf("%d of %d jobs evicted with %d retained", len(evicted), len(records), retained)
	}
	if v := srv.rec.Metrics().Counter("optima_job_results_evicted_total", "").Value(); v != float64(len(evicted)) {
		t.Fatalf("optima_job_results_evicted_total = %v, want %d", v, len(evicted))
	}

	old := evicted[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, eventsURL(ts.URL, old.sid, old.jid), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("events of an evicted job: %v", err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || !strings.Contains(body.String(), "evicted") {
		t.Fatalf("events of an evicted job: %d %s, want 410 saying it was evicted", resp.StatusCode, body.String())
	}

	jid, res, err := runSoakJob(ts.URL, old.sid, specs[old.spec])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, results[old.spec]) {
		t.Fatal("the resubmitted job returned other result bytes")
	}
	if st := jobStatus(t, ts.URL, old.sid, jid); st.Stats == nil || st.Stats.Misses != 0 {
		t.Fatalf("the resubmitted job evaluated cells: %+v", st.Stats)
	}
}

// runSoakJob submits one job, follows its event stream to the terminal
// event, and returns the job's result, which the server must still hold:
// it is the session's latest finished job.
func runSoakJob(base, sid string, req map[string]any) (string, []byte, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return "", nil, err
	}
	var st JobStatus
	if err := httpJSON(http.MethodPost, base+"/api/sessions/"+sid+"/jobs", data, http.StatusAccepted, &st); err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events, err := FollowEvents(ctx, eventsURL(base, sid, st.ID))
	if err != nil {
		return st.ID, nil, err
	}
	if last := events[len(events)-1]; last.Type != EventDone {
		return st.ID, nil, fmt.Errorf("job %s ended %s: %s", st.ID, last.Type, last.Error)
	}
	if err := httpJSON(http.MethodGet, base+"/api/sessions/"+sid+"/jobs/"+st.ID, nil, http.StatusOK, &st); err != nil {
		return st.ID, nil, err
	}
	if st.ResultEvicted || len(st.Result) == 0 {
		return st.ID, nil, fmt.Errorf("job %s: the session's latest finished job has no result (evicted %v)", st.ID, st.ResultEvicted)
	}
	return st.ID, st.Result, nil
}

// httpJSON sends one request and decodes a reply with the wanted status
// into out; usable off the test goroutine.
func httpJSON(method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}
