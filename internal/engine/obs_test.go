package engine

import (
	"bytes"
	"encoding/json"
	"testing"

	"optima/internal/obs"
)

// TestRecorderInvariantResults is the tentpole's core guarantee at the
// engine layer: attaching a recorder — at any worker count — changes no
// evaluation result, byte for byte. Timing flows into spans and
// histograms only, never into metrics.
func TestRecorderInvariantResults(t *testing.T) {
	jobs := testJobs(24)
	run := func(workers int, rec *obs.Recorder) []byte {
		eng := New(&fakeBackend{}, workers)
		eng.WithRecorder(rec)
		mets, err := eng.EvaluateBatch(jobs)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(mets)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	base := run(1, nil)
	cases := []struct {
		name    string
		workers int
		rec     *obs.Recorder
	}{
		{"recorder-workers1", 1, obs.NewRecorder(obs.RecorderOptions{})},
		{"nil-workers8", 8, nil},
		{"recorder-workers8", 8, obs.NewRecorder(obs.RecorderOptions{})},
	}
	for _, tc := range cases {
		if got := run(tc.workers, tc.rec); !bytes.Equal(base, got) {
			t.Errorf("%s: results differ from the nil-recorder single-worker run", tc.name)
		}
	}
}

// TestEngineTelemetry checks the instruments the engine drives: eval and
// cache-hit counters, the duration histograms, and the span forest of a
// batch (one batch root, one eval span per miss, nested correctly).
func TestEngineTelemetry(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderOptions{})
	eng := New(&fakeBackend{}, 4).WithRecorder(rec)
	jobs := testJobs(10)

	if _, err := eng.EvaluateBatch(jobs); err != nil {
		t.Fatal(err)
	}
	reg := rec.Metrics()
	if got := reg.Counter("optima_evals_total", "", "backend", "fake").Value(); got != 10 {
		t.Errorf("evals counter = %v, want 10", got)
	}
	if got := reg.Histogram("optima_eval_duration_seconds", "", nil, "backend", "fake").Count(); got != 10 {
		t.Errorf("eval duration observations = %v, want 10", got)
	}
	if got := reg.Histogram("optima_queue_wait_seconds", "", nil).Count(); got != 10 {
		t.Errorf("queue wait observations = %v, want 10", got)
	}

	// Warm pass: every job is a memory-tier hit, no new evals.
	if _, err := eng.EvaluateBatch(jobs); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("optima_evals_total", "", "backend", "fake").Value(); got != 10 {
		t.Errorf("evals counter after warm pass = %v, want 10 (hits must not evaluate)", got)
	}
	if got := reg.Counter("optima_cache_hits_total", "", "tier", "memory").Value(); got != 10 {
		t.Errorf("memory hits = %v, want 10", got)
	}

	spans := rec.Snapshot()
	var batches, evals int
	var root obs.SpanID
	for _, s := range spans {
		switch s.Cat {
		case obs.CatBatch:
			batches++
			if batches == 1 {
				root = s.ID
			}
		case obs.CatEval:
			evals++
			if s.Parent == 0 {
				t.Errorf("eval span %d has no parent batch", s.ID)
			}
		}
	}
	if batches != 2 || evals != 10 {
		t.Errorf("spans: %d batches and %d evals, want 2 and 10", batches, evals)
	}
	if got := len(obs.Subtree(spans, root)); got == 0 {
		t.Error("first batch has an empty subtree")
	}

	// ParentSpan nests a batch under a caller's span, a server job say.
	parent := rec.StartSpan(0, obs.CatJob, "test-job", "")
	if _, err := eng.EvaluateBatchOpts(testJobs(14)[10:], BatchOptions{ParentSpan: parent.ID()}); err != nil {
		t.Fatal(err)
	}
	parent.End()
	if got := len(obs.Subtree(rec.Snapshot(), parent.ID())); got != 6 { // job + batch + 4 evals
		t.Errorf("job subtree has %d spans, want 6", got)
	}
}

// TestStatsMatchRegistry pins one home per count: with every count driven
// to a nonzero value — a memory hit, a store hit, a miss, a failed store
// write and an eviction — each Stats field equals its registry sample, and
// a second engine on the recorder adds to the same series.
func TestStatsMatchRegistry(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderOptions{})
	reg := rec.Metrics()
	disk := newFakeStore()
	jobs := testJobs(3)
	disk.data[Key{Backend: "fake", Job: jobs[0]}] = Metrics{Config: jobs[0].Config, Cond: jobs[0].Cond}
	disk.failPut = true
	eng := New(&fakeBackend{}, 2).WithStore(disk).WithRecorder(rec)
	// jobs[0] from the store, jobs[1] and jobs[2] evaluated (their write
	// fails), then the duplicate jobs[1] from memory.
	if _, err := eng.EvaluateBatch(append(jobs, jobs[1])); err != nil {
		t.Fatal(err)
	}
	// A full cap of other cells evicts those three.
	if _, err := eng.EvaluateBatch(lruJobs(0, memoryCap)); err != nil {
		t.Fatal(err)
	}
	// registry reads the five counts back from the recorder as a Stats.
	registry := func() Stats {
		c := func(name string, labels ...string) uint64 { return uint64(reg.Counter(name, "", labels...).Value()) }
		return Stats{
			Hits:        c("optima_cache_hits_total", "tier", "memory"),
			DiskHits:    c("optima_cache_hits_total", "tier", "store"),
			Misses:      c("optima_evals_total", "backend", "fake"),
			StoreErrors: c("optima_store_errors_total"),
			Evictions:   c("optima_cache_evictions_total"),
		}
	}
	st := eng.Stats()
	st.Entries = 0
	if st.Hits == 0 || st.DiskHits == 0 || st.Misses == 0 || st.StoreErrors == 0 || st.Evictions == 0 {
		t.Fatalf("stats %+v: want every count nonzero", st)
	}
	if got := registry(); got != st {
		t.Errorf("registry %+v, Stats %+v", got, st)
	}

	eng2 := New(&fakeBackend{}, 2).WithStore(disk).WithRecorder(rec)
	if _, err := eng2.EvaluateBatch(jobs); err != nil {
		t.Fatal(err)
	}
	st2 := eng2.Stats()
	sum := Stats{Hits: st.Hits + st2.Hits, DiskHits: st.DiskHits + st2.DiskHits,
		Misses: st.Misses + st2.Misses, StoreErrors: st.StoreErrors + st2.StoreErrors,
		Evictions: st.Evictions + st2.Evictions}
	if got := registry(); got != sum {
		t.Errorf("after a second engine: registry %+v, the engines' Stats sum %+v", got, sum)
	}
}
