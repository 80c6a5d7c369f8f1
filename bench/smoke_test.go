package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

func TestMain(m *testing.M) {
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	os.Exit(m.Run())
}

// TestSmoke runs every workload at minimal size, untraced and traced, and
// checks each emits exactly the metrics BENCHMARK.json lists for its mode,
// with every check passing.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{workload: w.name, seed: defaultSeed, seconds: 1, trace: trace, smoke: true,
					workdir: dir, traceOut: filepath.Join(dir, "trace.json")}
				rep, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				res := rep.result()
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if m.Unit == "" {
						t.Errorf("%s has no unit", name)
					}
				}
				sort.Strings(got)
				want := e2e
				if trace {
					want = layer
				}
				if !slices.Equal(got, want) {
					t.Errorf("metrics %v, want %v", got, want)
				}
				if !trace {
					return
				}
				data, err := os.ReadFile(cfg.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var events struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &events); err != nil || len(events.TraceEvents) == 0 {
					t.Errorf("trace file: %d events, %v", len(events.TraceEvents), err)
				}
			})
		}
	}
}
