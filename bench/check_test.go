package main

import (
	"encoding/json"
	"math"
	"testing"

	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/search"
	"optima/internal/server"
)

func cellsForTest() []engine.Metrics {
	out := make([]engine.Metrics, 4)
	for i := range out {
		out[i] = engine.Metrics{
			Config: mult.Config{Tau0: float64(16+4*i) * 1e-11, VDAC0: 0.3, VDACFS: 1},
			Cond:   device.Nominal(),
			EpsMul: 1.5 + float64(i), EpsLarge: 2, EpsSmall: 1, EMul: 4e-14,
			SigmaMaxLSB: 0.2, SigmaMaxVolt: 5e-3, LSBVolt: 2e-2,
		}
	}
	return out
}

func digestOf(ms []engine.Metrics) string {
	d := newDigest()
	d.metrics(ms...)
	return d.sum()
}

// TestFlippedBitFailsOp flips the lowest bit of each field of one cell in
// turn: every flip must change the digest, so the op's check fails.
func TestFlippedBitFailsOp(t *testing.T) {
	cells := cellsForTest()
	want := digestOf(cells)
	if err := sameDigest("op", want, digestOf(cellsForTest())); err != nil {
		t.Fatalf("identical cells: %v", err)
	}
	flip := func(x *float64) { *x = math.Float64frombits(math.Float64bits(*x) ^ 1) }
	fields := []func(m *engine.Metrics) *float64{
		func(m *engine.Metrics) *float64 { return &m.Config.Tau0 },
		func(m *engine.Metrics) *float64 { return &m.Cond.TempC },
		func(m *engine.Metrics) *float64 { return &m.EpsMul },
		func(m *engine.Metrics) *float64 { return &m.EpsLarge },
		func(m *engine.Metrics) *float64 { return &m.EpsSmall },
		func(m *engine.Metrics) *float64 { return &m.EMul },
		func(m *engine.Metrics) *float64 { return &m.SigmaMaxLSB },
		func(m *engine.Metrics) *float64 { return &m.SigmaMaxVolt },
		func(m *engine.Metrics) *float64 { return &m.LSBVolt },
	}
	for i, field := range fields {
		got := cellsForTest()
		flip(field(&got[2]))
		if err := sameDigest("op", want, digestOf(got)); err == nil {
			t.Errorf("field %d: a flipped bit passed the check", i)
		}
		if err := checkReplay(engine.Stats{}, want, digestOf(got)); err == nil {
			t.Errorf("field %d: a replay with a flipped bit passed", i)
		}
	}
}

func TestReplayWithMissesFails(t *testing.T) {
	d := digestOf(cellsForTest())
	if err := checkReplay(engine.Stats{DiskHits: 10, Hits: 3}, d, d); err != nil {
		t.Fatalf("a clean replay failed: %v", err)
	}
	if err := checkReplay(engine.Stats{DiskHits: 9, Misses: 1}, d, d); err == nil {
		t.Error("a replay that evaluated a cell passed")
	}
}

func TestPinnedDigestOnlyAtDefaultSeed(t *testing.T) {
	if pinnedDigest(wExplore, defaultSeed+1, false) != "" || pinnedDigest(wExplore, defaultSeed, true) != "" {
		t.Error("a pin applies to another seed or to a smoke run")
	}
	if err := checkPinned(wExplore, "", "anything"); err != nil {
		t.Errorf("an empty pin failed: %v", err)
	}
	if err := checkPinned(wExplore, "aa", "ab"); err == nil {
		t.Error("a digest other than the pin passed")
	}
}

// TestSpecRepeatsMustMatch checks a server-fleet spec whose repeated
// results differ fails the op.
func TestSpecRepeatsMustMatch(t *testing.T) {
	s := specResults{seen: map[string][32]byte{}}
	req := server.JobRequest{Kind: server.KindSweep, Tau0: "0.16,0.2", VDAC0: "0.3,0.4", VDACFS: "0.8,1", Conditions: "TT@1V@27C"}
	other := req
	other.VDACFS = "0.8,0.9"
	if err := s.record(req, []byte(`{"points":[1]}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.record(other, []byte(`{"points":[2]}`)); err != nil {
		t.Fatalf("another spec: %v", err)
	}
	if err := s.record(req, []byte(`{"points":[1]}`)); err != nil {
		t.Fatalf("a matching repeat failed: %v", err)
	}
	if err := s.record(req, []byte(`{"points":[3]}`)); err == nil {
		t.Error("a repeat with another result passed")
	}
	if s.n != 4 || s.repeats != 2 {
		t.Errorf("counted %d results with %d repeats, want 4 with 2", s.n, s.repeats)
	}
}

// TestCanonicalSearchResult checks two runs of one search that differ only
// in what the caches served compare equal, and runs that differ in a
// result do not.
func TestCanonicalSearchResult(t *testing.T) {
	rep := search.JSONReport{
		Front:     []search.FrontPoint{{Tau0NS: 0.16, EpsMul: 1.25}},
		Finalists: 1,
		Trace:     search.Trace{SpaceSize: 8, Sampled: 8, Rungs: []search.RungStats{{Candidates: 8, Evaluated: 8, Promoted: 4}}},
	}
	cold, _ := json.Marshal(rep)
	rep.Trace.Rungs[0].Evaluated, rep.Trace.Rungs[0].CacheHits = 0, 8
	warm, _ := json.Marshal(rep)
	a, err := canonicalResult(server.KindSearch, cold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonicalResult(server.KindSearch, warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("cold and warm runs differ after canonicalization:\n%s\n%s", a, b)
	}
	rep.Front[0].EpsMul = 1.5
	changed, _ := json.Marshal(rep)
	c, err := canonicalResult(server.KindSearch, changed)
	if err != nil {
		t.Fatal(err)
	}
	if string(c) == string(b) {
		t.Error("a changed front compares equal")
	}
	if _, err := canonicalResult(server.KindSweep, nil); err == nil {
		t.Error("an empty result passed")
	}
}
