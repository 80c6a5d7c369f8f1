package server

import (
	"net/http/httptest"
	"testing"
)

// BenchmarkServerSubmitSweep measures the full job round trip on a warm
// store: POST the job, follow its event stream to the terminal event,
// GET the result. After the first iteration every cell is a memory-tier
// hit, so this tracks the server's own overhead (routing, session
// bookkeeping, event fan-out, JSON) rather than backend time.
func BenchmarkServerSubmitSweep(b *testing.B) {
	srv := New(testExp(b))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sid := createSession(b, ts.URL)
	req := map[string]any{
		"kind":   "sweep",
		"tau0":   "0.16:0.28:8",
		"vdac0":  "0.3,0.4,0.5",
		"vdacfs": "0.8,1.0",
	} // 48 cells

	// Warm the cache so iterations measure server overhead.
	jid := submitJob(b, ts.URL, sid, req)
	watchToTerminal(b, ts.URL, sid, jid)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jid := submitJob(b, ts.URL, sid, req)
		events := watchToTerminal(b, ts.URL, sid, jid)
		if last := events[len(events)-1]; last.Type != EventDone {
			b.Fatalf("job ended %q (%s)", last.Type, last.Error)
		}
		st := jobStatus(b, ts.URL, sid, jid)
		if len(st.Result) == 0 {
			b.Fatal("done job has no result")
		}
	}
}
