package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFile checks BENCHMARK.json against the limits a benchmark
// definition must respect and against the program's own registries.
func TestBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(bf.Workloads))
	}
	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(bf.EndToEnd))
	}
	if len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(bf.PerLayer))
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", bf.RunSeconds)
	}

	var files []string
	for _, w := range bf.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		files = append(files, w.Name)
		if wl, ok := workloadByName(w.Name); !ok || wl.why != w.Why {
			t.Errorf("workload %s: not in the program's registry with the same why", w.Name)
		}
	}
	sort.Strings(files)
	if got, want := files, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program registry %v", got, want)
	}

	setupSeen := false
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound == nil {
			t.Errorf("end-to-end %s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
			continue
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v, want (0, 0.25]", m.Name, *m.Bound)
		}
		if i >= len(endToEnd) || endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit ||
			endToEnd[i].better != m.Better || endToEnd[i].bound != *m.Bound {
			t.Errorf("end-to-end %s differs from the program's registry", m.Name)
		}
		if m.Name == "setup_s" {
			setupSeen = m.Unit == "s" && m.Better == "lower"
			for _, o := range bf.EndToEnd {
				if o.Bound != nil && *o.Bound > *m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", *m.Bound, o.Name, *o.Bound)
				}
			}
		}
	}
	if !setupSeen || len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("want setup_s in s, lower, and exactly the program's %d end-to-end metrics", len(endToEnd))
	}

	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if i >= len(perLayer) || perLayer[i].name != m.Name || perLayer[i].unit != m.Unit || perLayer[i].better != m.Better {
			t.Errorf("per-layer %s differs from the program's registry", m.Name)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for _, m := range perLayer {
		if m.layer == "" {
			t.Errorf("per-layer %s names no layer", m.name)
		}
		for _, mv := range m.moves {
			if !e2e[mv.metric] {
				t.Errorf("per-layer %s moves unknown end-to-end metric %q", m.name, mv.metric)
			}
			for _, w := range mv.workloads {
				if _, ok := workloadByName(w); !ok && w != "all" {
					t.Errorf("per-layer %s moves %s on unknown workload %q", m.name, mv.metric, w)
				}
			}
		}
	}

	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" || len(bf.Command) == 0 || bf.Command[0] != "bash" {
		t.Errorf("paths %v, command %v", bf.Paths, bf.Command)
	}
}
