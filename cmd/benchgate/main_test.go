package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runs returns a value per pair, start + i·step, or replace[i] if present.
func runs(start, step float64, replace map[int]float64) []float64 {
	out := make([]float64, pairs)
	for i := range out {
		out[i] = start + float64(i)*step
		if r, ok := replace[i]; ok {
			out[i] = r
		}
	}
	return out
}

func TestJudge(t *testing.T) {
	higher := metricSpec{Name: "cells_per_s", Better: "higher", Bound: 0.25}
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.25}
	base := runs(100, 1, nil) // median 104.5, IQR 107.25 − 101.75 = 5.5
	wide := runs(50, 20, nil) // median 140, IQR 195 − 85 = 110 > 0.25·140
	for _, tc := range []struct {
		name         string
		m            metricSpec
		base, change []float64
		wins         int
		want         string
	}{
		{"clear gain", higher, base, runs(150, 1, nil), 10, "gain"},
		{"lower is better", lower, base, runs(50, 1, nil), 10, "gain"},
		{"8 of 10 wins is not a gain", higher, base, runs(120, 1, map[int]float64{0: 99, 1: 100}), 8, "held"},
		{"a gap within the IQR is not a gain", higher, base, runs(103, 1, nil), 10, "held"},
		{"regression beyond the bound", lower, base, runs(140, 1, nil), 0, "regressed"},
		{"regression within the bound", lower, base, runs(120, 1, nil), 0, "held"},
		{"spread wider than the bound", higher, wide, runs(50, 20, map[int]float64{0: 60, 9: 200}), 1, "unresolved"},
		{"wide spread, every change run better", higher, wide, runs(231, 1, nil), 10, "held"},
		{"nine wins and a tie", higher, base, runs(150, 1, map[int]float64{3: 103}), 9, "gain"},
		{"eight wins and two ties", higher, base, runs(150, 1, map[int]float64{3: 103, 7: 107}), 8, "held"},
		{"identical runs", lower, runs(3.819, 0, nil), runs(3.819, 0, nil), 0, "held"},
	} {
		if v := judge(tc.m, tc.base, tc.change); v.Wins != tc.wins || v.Verdict != tc.want {
			t.Errorf("%s: wins %d, verdict %s; want %d, %s (%+v)", tc.name, v.Wins, v.Verdict, tc.wins, tc.want, v)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	if got, want := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}), (summary{5.5, 2.75, 8.25}); got != want {
		t.Errorf("summarize: %+v, want %+v", got, want)
	}
}

func TestFailures(t *testing.T) {
	ok := run{Correct: true, Attempted: 100}
	failing := run{Correct: true, Attempted: 100, Failed: 1}
	for _, tc := range []struct {
		base, change run
		want         int
	}{
		{ok, ok, 0},
		{failing, failing, 0},
		{ok, failing, 1}, // a higher failed share
		{failing, ok, 0},
		{ok, run{Attempted: 100}, 1}, // correct=false
	} {
		if got := failures([]pair{{Seed: 1, Base: tc.base, Change: tc.change}}); len(got) != tc.want {
			t.Errorf("%+v: failures %q, want %d", tc, got, tc.want)
		}
	}
}

// capturedRun is "bash bench/run.sh --workload replay-warm --smoke" output,
// its digest line and table cut.
const capturedRun = `bench: workload=replay-warm seed=1 seconds=15 trace=false smoke=true
host: go=go1.24.0 goos=linux goarch=amd64 gomaxprocs=2 cpu="Intel(R) Xeon(R) Processor"
  ops attempted=3 failed=0 error_rate=0 correct=true
{"correct":true,"attempted":3,"failed":0,"metrics":{"cells_per_s":{"value":13192.885154641308,"unit":"cells/s"},"golden_mul_us":{"value":394.117078125,"unit":"us"},"max_rss_mb":{"value":11.62109375,"unit":"MB"},"model_err_lsb":{"value":0.6606503300047775,"unit":"LSB"},"model_rms_mv":{"value":4.919929258992253,"unit":"mV"},"op_p50_ms":{"value":1.146907,"unit":"ms"},"op_p95_ms":{"value":1.559289,"unit":"ms"},"setup_s":{"value":0.18612818,"unit":"s"}}}
`

func TestParseRun(t *testing.T) {
	r, host, err := parseRun([]byte(capturedRun))
	if err != nil || host != `go=go1.24.0 goos=linux goarch=amd64 gomaxprocs=2 cpu="Intel(R) Xeon(R) Processor"` ||
		!r.Correct || r.Attempted != 3 || r.Failed != 0 || len(r.Metrics) != 8 ||
		r.Metrics["model_rms_mv"] != (metricValue{4.919929258992253, "mV"}) {
		t.Fatalf("parseRun: %+v, host %q, err %v", r, host, err)
	}
	cut := capturedRun[:strings.LastIndex(capturedRun[:len(capturedRun)-1], "\n")+1]
	for _, out := range []string{cut, "", "{}\n"} {
		if _, _, err := parseRun([]byte(out)); err == nil {
			t.Errorf("output %q without a result line parsed", out)
		}
	}
}

// fakeRepo makes a git repository, with no global or system git config,
// whose two commits differ in the file speed only. Its bench/run.sh reports
// cells_per_s = speed + seed and logs "<speed> <seed>" to $BENCHGATE_TEST_LOG.
func fakeRepo(t *testing.T) string {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	for k, v := range map[string]string{
		"GIT_CONFIG_GLOBAL": os.DevNull, "GIT_CONFIG_NOSYSTEM": "1",
		"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.com",
		"GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@example.com",
		"BENCHGATE_TEST_LOG": filepath.Join(t.TempDir(), "runs.log"),
	} {
		t.Setenv(k, v)
	}
	dir := t.TempDir()
	gitT(t, dir, "init", "-q")
	if err := os.Mkdir(filepath.Join(dir, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ file, content, commit string }{
		{"BENCHMARK.json", `{"command": ["bash", "bench/run.sh"], "paths": ["bench"], "run_seconds": 1,
  "workloads": [{"name": "fake"}], "end_to_end": [{"name": "cells_per_s", "better": "higher", "bound": 0.25}]}`, ""},
		{"bench/run.sh", `while [ $# -gt 0 ]; do case $1 in --seed) seed=$2; shift 2;; *) shift;; esac; done
echo "$(cat speed) $seed" >> "$BENCHGATE_TEST_LOG"
echo "host: fake"
echo "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"cells_per_s\":{\"value\":$(($(cat speed) + seed)),\"unit\":\"cells/s\"}}}"
`, ""},
		{"speed", "100", "base"},
		{"speed", "200", "change"},
	} {
		if err := os.WriteFile(filepath.Join(dir, c.file), []byte(c.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if c.commit != "" {
			gitT(t, dir, "add", "-A")
			gitT(t, dir, "commit", "-q", "-m", c.commit)
		}
	}
	return dir
}

func gitT(t *testing.T, dir string, args ...string) string {
	t.Helper()
	out, err := git(context.Background(), dir, args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompareEndToEnd(t *testing.T) {
	dir := fakeRepo(t)
	if ok, err := compare(context.Background(), dir, "HEAD~1", "HEAD", nil, io.Discard); !ok || err != nil {
		t.Fatalf("compare: ok %v, err %v", ok, err)
	}
	var rep report
	if data, err := os.ReadFile(filepath.Join(dir, "BENCH_fake.json")); err != nil || json.Unmarshal(data, &rep) != nil {
		t.Fatalf("BENCH_fake.json: %v", err)
	}
	if rep.Workload != "fake" || rep.Base != gitT(t, dir, "rev-parse", "HEAD~1") || rep.Change != gitT(t, dir, "rev-parse", "HEAD") ||
		rep.Seconds != 1 || rep.Host != "fake" || len(rep.Pairs) != pairs ||
		len(rep.Verdicts) != 1 || rep.Verdicts[0].Verdict != "gain" || rep.Verdicts[0].Wins != pairs {
		t.Fatalf("report %+v", rep)
	}
	var want strings.Builder
	for i, p := range rep.Pairs {
		seed, first, order := i+1, "base", "100 %[1]d\n200 %[1]d\n"
		if seed%2 == 0 {
			first, order = "change", "200 %[1]d\n100 %[1]d\n"
		}
		if p.Seed != seed || p.First != first || p.Change.Metrics["cells_per_s"].Value != float64(200+seed) {
			t.Fatalf("pair %d: %+v", i, p)
		}
		fmt.Fprintf(&want, order, seed)
	}
	if log, err := os.ReadFile(os.Getenv("BENCHGATE_TEST_LOG")); err != nil || string(log) != want.String() {
		t.Fatalf("the runs took the order\n%s(err %v), want\n%s", log, err, want.String())
	}
	if trees := gitT(t, dir, "worktree", "list"); strings.Contains(trees, "\n") {
		t.Fatalf("worktrees left behind:\n%s", trees)
	}

	// A comparison across an edit of bench/ is refused.
	if err := os.WriteFile(filepath.Join(dir, "bench/run.sh"), []byte("exit 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gitT(t, dir, "commit", "-q", "-am", "edit the benchmark")
	if _, err := compare(context.Background(), dir, "HEAD~2", "HEAD", nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "a comparison needs one benchmark") {
		t.Fatalf("compare across a benchmark edit: err %v", err)
	}
}
