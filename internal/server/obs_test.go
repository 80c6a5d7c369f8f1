package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

var smallSweep = map[string]any{
	"kind":   "sweep",
	"tau0":   "0.16:0.28:4",
	"vdac0":  "0.3,0.4",
	"vdacfs": "0.8,1.0",
}

// expositionLine matches one well-formed Prometheus text line.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+)$`)

// TestServerMetricsEndpoint: after one finished sweep, GET /metrics serves
// well-formed Prometheus text exposition carrying the evaluation, cache
// and job-lifecycle series the run just drove.
func TestServerMetricsEndpoint(t *testing.T) {
	srv := New(testExp(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sid := createSession(t, ts.URL)
	jid := submitJob(t, ts.URL, sid, smallSweep)
	watchToTerminal(t, ts.URL, sid, jid)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
		if !strings.HasPrefix(line, "#") {
			if name, val, ok := strings.Cut(line, " "); ok {
				samples[name] = val
			}
		}
	}
	for name, want := range map[string]string{
		`optima_evals_total{backend="behavioral"}`:                 "16",
		`optima_jobs_total{state="done"}`:                          "1",
		"optima_sessions_active":                                   "1",
		"optima_jobs_active":                                       "0",
		`optima_eval_duration_seconds_count{backend="behavioral"}`: "16",
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s = %q (present %v), want %q", name, got, ok, want)
		}
	}
}

// TestServerJobTraceEndpoint: a finished job's trace endpoint serves its
// span subtree as Chrome trace-format JSON — the job span plus the engine
// batch and eval spans that ran under it.
func TestServerJobTraceEndpoint(t *testing.T) {
	srv := New(testExp(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sid := createSession(t, ts.URL)
	jid := submitJob(t, ts.URL, sid, smallSweep)
	watchToTerminal(t, ts.URL, sid, jid)

	resp, err := http.Get(ts.URL + "/api/sessions/" + sid + "/jobs/" + jid + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", resp.StatusCode)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tf); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	// 1 job span + 1 batch span + 16 evals.
	if len(tf.TraceEvents) < 18 {
		t.Fatalf("trace has %d events, want >= 18", len(tf.TraceEvents))
	}
	byCat := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		byCat[ev.Cat]++
	}
	if byCat["job"] != 1 || byCat["batch"] == 0 || byCat["eval"] != 16 {
		t.Errorf("trace categories %v, want one job, >=1 batch, 16 evals", byCat)
	}

	// Unknown jobs 404 like every other job route.
	resp2, err := http.Get(ts.URL + "/api/sessions/" + sid + "/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job: %d, want 404", resp2.StatusCode)
	}
}

// TestServerStatusSessionAndHubCounts: GET /api/status breaks job counts
// down per session (creation order) and reports the hub's fan-out state.
func TestServerStatusSessionAndHubCounts(t *testing.T) {
	srv := New(testExp(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sidA := createSession(t, ts.URL)
	sidB := createSession(t, ts.URL)
	jid := submitJob(t, ts.URL, sidA, smallSweep)
	watchToTerminal(t, ts.URL, sidA, jid)

	var st StatusResponse
	if code := getJSON(t, ts.URL+"/api/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.Sessions != 2 {
		t.Errorf("sessions = %d, want 2", st.Sessions)
	}
	want := []SessionJobCounts{
		{ID: sidA, Active: 0, Total: 1},
		{ID: sidB, Active: 0, Total: 0},
	}
	if len(st.SessionJobs) != 2 || st.SessionJobs[0] != want[0] || st.SessionJobs[1] != want[1] {
		t.Errorf("session job counts %+v, want %+v", st.SessionJobs, want)
	}
	// The finished job's stream is retained for late subscribers; nobody is
	// attached anymore.
	if st.Hub.Topics != 1 || st.Hub.Subscribers != 0 {
		t.Errorf("hub = %+v, want 1 topic and 0 subscribers", st.Hub)
	}
}
