package server

// stream.go is the job event stream over Server-Sent Events: the handler
// behind GET …/jobs/{jid}/events, and FollowEvents, the client the tests
// and the smoke self-check use. Progress only flows server → client, so
// plain net/http suffices — no upgrade, no reader goroutine, no ping/pong.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// handleJobEvents streams a job's events as text/event-stream, one
// `id: <seq>` / `data: <event JSON>` frame per event, history first. A
// Last-Event-ID header resumes after that seq (missing means 0). The
// response ends when the stream closes the subscriber — after the terminal
// event, or when it drops this subscriber for falling behind, whereupon
// the client resumes — or when the client hangs up. A job whose stream is
// gone — its result was evicted, or its session deleted after the lookup —
// is a 410 that says which.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	_, j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		var err error
		if after, err = strconv.ParseUint(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "bad Last-Event-ID %q: want an event seq", v)
			return
		}
	}
	history, ch, ok := j.subscribe(after)
	if !ok {
		if j.status(false).ResultEvicted {
			writeError(w, http.StatusGone, "job %s finished and its result and events were evicted to stay within the server's retention budget; resubmit it to have the cache tiers serve it", j.id)
		} else {
			writeError(w, http.StatusGone, "job %s's events were dropped with its session", j.id)
		}
		return
	}
	defer j.unsubscribe(ch)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if rc.Flush() != nil {
		return
	}
	// Seqs are contiguous from after+1 across history and live channel
	// (subscribe's contract), so counting recovers each event's id.
	seq := after
	send := func(data []byte) bool {
		seq++
		if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", seq, data); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	for _, data := range history {
		if !send(data) {
			return
		}
	}
	for {
		select {
		case data, ok := <-ch:
			if !ok || !send(data) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// FollowEvents reads a job's event stream (url is …/jobs/{jid}/events) to
// its terminal event and returns every event in seq order. A stream that
// ends early — the server drops a subscriber that falls behind — is resumed
// with Last-Event-ID, so no event is lost or repeated. ctx bounds the
// whole follow; on error the events read so far are returned too.
func FollowEvents(ctx context.Context, url string) ([]Event, error) {
	var events []Event
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return events, err
		}
		if n := len(events); n > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatUint(events[n-1].Seq, 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return events, err
		}
		before := len(events)
		events, err = readEvents(resp, events)
		resp.Body.Close()
		switch {
		case err != nil:
			return events, err
		case len(events) > before && events[len(events)-1].Terminal():
			return events, nil
		case len(events) == before:
			return events, fmt.Errorf("server: event stream %s ended after %d events without a terminal one", url, before)
		}
	}
}

// readEvents appends the events of one stream response, stopping at a
// terminal event. The server writes each event as a single data line, so
// every data line is decoded on its own; id lines and blank separators
// carry nothing the JSON lacks.
func readEvents(resp *http.Response, events []Event) ([]Event, error) {
	if resp.StatusCode != http.StatusOK {
		// Error replies carry {"error": why} — a 410 says why the events
		// are gone. A body that is not one leaves the reason empty.
		var reply struct{ Error string }
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&reply)
		return events, fmt.Errorf("server: GET %s: %s: %s", resp.Request.URL, resp.Status, reply.Error)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return events, fmt.Errorf("server: bad event %q: %w", data, err)
		}
		if events = append(events, ev); ev.Terminal() {
			return events, nil
		}
	}
	return events, sc.Err()
}
