package search_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/obs"
	"optima/internal/search"
)

// TestSearchReportByteIdenticalWithRecorder pins the acceptance criterion:
// the search.json payload (the marshaled search.JSONReport — what `optima
// search` writes and what server search jobs return) is byte-identical
// with a recorder attached or not, at any worker count.
func TestSearchReportByteIdenticalWithRecorder(t *testing.T) {
	m := testModel(t)
	sp := search.FromGrid(dse.DefaultGrid())

	run := func(workers int, rec *obs.Recorder) []byte {
		screen := engine.New(engine.Behavioral{Model: m}, workers).WithRecorder(rec)
		res, err := search.Run(context.Background(), search.Options{
			Space:    sp,
			Screen:   screen,
			Rungs:    3,
			Refine:   true,
			Seed:     42,
			Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(search.NewJSONReport(res), "", "  ")
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
			t.Errorf("%s: search.json differs from the nil-recorder single-worker run", tc.name)
		}
	}
}

// TestSearchSpans checks the search's span forest: one adaptive-search
// root, one rung span per rung plus the promotion, all parented under the
// root (and under a caller-provided span when Options.Span is set).
func TestSearchSpans(t *testing.T) {
	m := testModel(t)
	rec := obs.NewRecorder(obs.RecorderOptions{})
	job := rec.StartSpan(0, obs.CatJob, "test-job", "")

	screen := engine.New(engine.Behavioral{Model: m}, 4).WithRecorder(rec)
	final := engine.New(&countingBackend{inner: engine.Behavioral{Model: m}, name: "golden"}, 4).WithRecorder(rec)
	if _, err := search.Run(context.Background(), search.Options{
		Space:    search.FromGrid(dse.DefaultGrid()),
		Screen:   screen,
		Final:    final,
		Rungs:    2,
		Seed:     1,
		Recorder: rec,
		Span:     job.ID(),
	}); err != nil {
		t.Fatal(err)
	}
	job.End()

	spans := rec.Snapshot()
	var roots, rungs int
	var rootID obs.SpanID
	for _, s := range spans {
		switch {
		case s.Cat == obs.CatSearch:
			roots++
			rootID = s.ID
			if s.Parent != job.ID() {
				t.Errorf("search root parented to %d, want job span %d", s.Parent, job.ID())
			}
		case s.Cat == obs.CatRung:
			rungs++
		}
	}
	if roots != 1 {
		t.Fatalf("found %d adaptive-search roots, want 1", roots)
	}
	if rungs != 3 { // rung-0, rung-1, promote
		t.Errorf("found %d rung spans, want 3 (two rungs + promote)", rungs)
	}
	for _, s := range spans {
		if s.Cat == obs.CatRung && s.Parent != rootID {
			t.Errorf("rung span %q parented to %d, want search root %d", s.Name, s.Parent, rootID)
		}
	}
}
