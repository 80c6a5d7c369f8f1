package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optima/internal/engine"
)

// getStream GETs an event stream with an optional Last-Event-ID and
// returns the status, content type and the whole body (a finished job's
// stream closes after its history).
func getStream(t *testing.T, url, lastID string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func subscribers(srv *Server) int {
	_, n := srv.hub.Counts()
	return n
}

// TestServerEventsResume: on a finished job, Last-Event-ID k yields exactly
// the frames k+1 … terminal — each `id:` equal to its event's seq — and k
// at or past the terminal seq yields an empty stream. A non-numeric
// Last-Event-ID is a 400.
func TestServerEventsResume(t *testing.T) {
	leakCheck(t)
	srv := New(testExp(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sid := createSession(t, ts.URL)
	jid := submitJob(t, ts.URL, sid, smallSweep)
	n := uint64(len(watchToTerminal(t, ts.URL, sid, jid)))
	url := eventsURL(ts.URL, sid, jid)

	for _, k := range []uint64{0, 1, n - 1, n, n + 5} {
		lastID := ""
		if k > 0 {
			lastID = fmt.Sprint(k)
		}
		code, ctype, body := getStream(t, url, lastID)
		if code != http.StatusOK || ctype != "text/event-stream" {
			t.Fatalf("Last-Event-ID %q: %d %q, want 200 text/event-stream", lastID, code, ctype)
		}
		frames := strings.Split(strings.TrimSuffix(body, "\n\n"), "\n\n")
		if body == "" {
			frames = nil
		}
		if want := int(n - min(k, n)); len(frames) != want {
			t.Fatalf("Last-Event-ID %q: %d frames, want %d", lastID, len(frames), want)
		}
		for i, f := range frames {
			id, data, ok := strings.Cut(f, "\n")
			var ev Event
			if !ok || json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &ev) != nil {
				t.Fatalf("malformed frame %q", f)
			}
			if seq := k + uint64(i) + 1; id != fmt.Sprintf("id: %d", seq) || ev.Seq != seq {
				t.Fatalf("Last-Event-ID %q: frame %d is %q with seq %d, want id and seq %d", lastID, i, id, ev.Seq, seq)
			}
			if i == len(frames)-1 && ev.Type != EventDone {
				t.Fatalf("stream ended on %q, want done", ev.Type)
			}
		}
	}

	if code, _, body := getStream(t, url, "seven"); code != http.StatusBadRequest || !strings.Contains(body, "Last-Event-ID") {
		t.Fatalf("non-numeric Last-Event-ID: %d %s, want 400", code, body)
	}
	if code, _, _ := getStream(t, eventsURL(ts.URL, sid, "nope"), ""); code != http.StatusNotFound {
		t.Fatalf("stream of unknown job: %d, want 404", code)
	}
}

// TestServerEventsHangUp: a client that hangs up mid-job makes the stream
// handler return — the hub is left with no subscriber and no goroutine
// outlives the test.
func TestServerEventsHangUp(t *testing.T) {
	leakCheck(t)
	gate := newGateBackend()
	gateEng := engine.New(gate, 2)
	srv := New(testExp(t))
	srv.engineFor = func(string) (*engine.Engine, error) { return gateEng, nil }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sid := createSession(t, ts.URL)
	jid := submitJob(t, ts.URL, sid, smallSweep)
	<-gate.started

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, eventsURL(ts.URL, sid, jid), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || line != "id: 1\n" {
		t.Fatalf("first stream line %q (%v), want id: 1", line, err)
	}
	if n := subscribers(srv); n != 1 {
		t.Fatalf("%d subscribers while streaming, want 1", n)
	}
	cancel()
	resp.Body.Close()
	waitFor(t, "the stream handler to detach", func() bool { return subscribers(srv) == 0 })

	close(gate.release)
	if last := watchToTerminal(t, ts.URL, sid, jid); last[len(last)-1].Type != EventDone {
		t.Fatalf("job ended %q after the watcher hung up", last[len(last)-1].Type)
	}
}

// TestServerShutdownEndsStream: the optima-server shutdown sequence —
// http.Server.Shutdown, then Server.Shutdown with a short deadline — ends
// a stream attached to a running job with a canceled event. The stream is
// an in-flight request, so the HTTP drain alone runs into its deadline.
func TestServerShutdownEndsStream(t *testing.T) {
	leakCheck(t)
	gate := newGateBackend()
	gateEng := engine.New(gate, 2)
	srv := New(testExp(t))
	srv.engineFor = func(string) (*engine.Engine, error) { return gateEng, nil }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	sid := createSession(t, base)
	jid := submitJob(t, base, sid, smallSweep)
	<-gate.started
	type followed struct {
		events []Event
		err    error
	}
	streamed := make(chan followed, 1)
	go func() {
		events, err := FollowEvents(context.Background(), eventsURL(base, sid, jid))
		streamed <- followed{events, err}
	}()
	waitFor(t, "the stream to attach", func() bool { return subscribers(srv) == 1 })

	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("http drain with a stream attached: %v, want the deadline", err)
	}
	jobCtx, cancelJobs := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelJobs()
	time.AfterFunc(100*time.Millisecond, func() { close(gate.release) })
	if err := srv.Shutdown(jobCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case f := <-streamed:
		if f.err != nil {
			t.Fatalf("stream failed after %d events: %v", len(f.events), f.err)
		}
		if last := f.events[len(f.events)-1]; last.Type != EventCanceled {
			t.Fatalf("stream ended on %q, want canceled", last.Type)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after shutdown")
	}
}
