// Command benchgate compares two commits on the repository benchmark, by
// bench/README's "Comparing two commits" recipe:
//
//	go run ./cmd/benchgate <base-rev> <change-rev> [workload ...]
//
// Each rev runs in its own temporary git worktree, so uncommitted files
// never reach a run. The command, paths, run_seconds, workloads (default:
// all, in file order) and end-to-end metrics come from the change rev's
// BENCHMARK.json; revs that differ in it or in its paths are refused. Each
// workload runs at seeds 1–10, the base first on odd seeds, and each
// end-to-end metric gets the first verdict that holds over the N pairs:
//
//	gain        the change is strictly better in at least 0.9·N pairs (ties
//	            count for neither side), and its median is better by more
//	            than the base's interquartile range (IQR = Q3 − Q1)
//	unresolved  the IQR exceeds bound·|base median|, and not every change
//	            run beats every base run
//	regressed   the change's median is worse by more than bound·|base median|
//	held        otherwise
//
// Quartiles follow the exclusive method (R type 6, Python's
// statistics.quantiles default): the p-quantile of n sorted runs
// interpolates at rank p·(n+1), so the median of ten is the mean of the
// middle pair. BENCH_<workload>.json, in the directory benchgate runs
// from, records the pairs and verdicts. The exit status is 1 when a metric
// regressed, a run reported correct=false, or the change failed a larger
// share of its ops (no gain counts then), and 2 when it could not compare.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// pairs is the number of pairs per workload; pair i runs seed i+1.
const pairs = 10

var sides = [2]string{"base", "change"}

// benchmark is the part of BENCHMARK.json benchgate reads.
type benchmark struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one run's result line.
type run struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pair is one seed's two runs; First is the side that ran first.
type pair struct {
	Seed   int    `json:"seed"`
	First  string `json:"first"`
	Base   run    `json:"base"`
	Change run    `json:"change"`
}

type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type verdict struct {
	Metric  string  `json:"metric"`
	Base    summary `json:"base"`
	Change  summary `json:"change"`
	Wins    int     `json:"wins"`
	Verdict string  `json:"verdict"`
}

// report is the content of BENCH_<workload>.json.
type report struct {
	Workload string    `json:"workload"`
	Base     string    `json:"base"`
	Change   string    `json:"change"`
	Seconds  float64   `json:"seconds"`
	Host     string    `json:"host"`
	Pairs    []pair    `json:"pairs"`
	Verdicts []verdict `json:"verdicts"`
}

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate <base-rev> <change-rev> [workload ...]")
		os.Exit(2)
	}
	// An interrupt kills the running benchmark; the worktrees still go.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ok, err := compare(ctx, ".", os.Args[1], os.Args[2], os.Args[3:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// compare compares the revs in the git repository at dir, writes the
// BENCH_<workload>.json files into dir, and reports whether every workload
// passed.
func compare(ctx context.Context, dir, baseRev, changeRev string, workloads []string, out io.Writer) (bool, error) {
	var shas [2]string
	for i, rev := range []string{baseRev, changeRev} {
		sha, err := git(ctx, dir, "rev-parse", "--verify", "--end-of-options", rev+"^{commit}")
		if err != nil {
			return false, err
		}
		shas[i] = sha
	}
	raw, err := git(ctx, dir, "show", shas[1]+":BENCHMARK.json")
	if err != nil {
		return false, err
	}
	var bm benchmark
	if err := json.Unmarshal([]byte(raw), &bm); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bm.Command) == 0 || !(bm.RunSeconds > 0) || len(bm.EndToEnd) == 0 ||
		slices.ContainsFunc(bm.EndToEnd, func(m metricSpec) bool { return m.Better != "higher" && m.Better != "lower" }) {
		return false, errors.New("BENCHMARK.json: want a command, run_seconds > 0, and end-to-end metrics whose better is higher or lower")
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if len(workloads) == 0 {
		workloads = names
	}
	for _, w := range workloads {
		if !slices.Contains(names, w) {
			return false, fmt.Errorf("no workload %q in BENCHMARK.json", w)
		}
	}
	// :(top) roots each path at the top of the repository, wherever dir is.
	diff := []string{"diff", "--quiet", shas[0], shas[1], "--", ":(top)BENCHMARK.json"}
	for _, p := range bm.Paths {
		diff = append(diff, ":(top)"+p)
	}
	if _, err := git(ctx, dir, diff...); err != nil {
		return false, fmt.Errorf("the revs differ in BENCHMARK.json or %s (%w): a comparison needs one benchmark",
			strings.Join(bm.Paths, ", "), err)
	}

	tmp, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	var trees [2]string
	for i, side := range sides {
		trees[i] = filepath.Join(tmp, side)
		if _, err := git(ctx, dir, "worktree", "add", "--detach", trees[i], shas[i]); err != nil {
			return false, err
		}
		defer func() {
			// Not ctx: an interrupted comparison removes its trees too.
			if _, err := git(context.Background(), dir, "worktree", "remove", "--force", trees[i]); err != nil {
				fmt.Fprintln(os.Stderr, "benchgate:", err)
			}
		}()
	}

	passed := true
	for _, w := range workloads {
		rep := report{Workload: w, Base: shas[0], Change: shas[1], Seconds: bm.RunSeconds}
		for i := range pairs {
			seed := i + 1
			var runs [2]run
			for _, s := range [2]int{i % 2, 1 - i%2} { // base first on odd seeds
				fmt.Fprintf(os.Stderr, "benchgate: %s seed %d/%d: %s\n", w, seed, pairs, sides[s])
				args := append(slices.Clip(bm.Command[1:]), "--workload", w, "--seed", strconv.Itoa(seed),
					"--seconds", strconv.FormatFloat(bm.RunSeconds, 'g', -1, 64), "--trace", "0")
				cmd := exec.CommandContext(ctx, bm.Command[0], args...)
				cmd.Dir, cmd.Stderr = trees[s], os.Stderr
				// A run that fails its checks exits 1 after its result line, so
				// the result line, not the exit status, decides.
				stdout, runErr := cmd.Output()
				r, host, err := parseRun(stdout)
				for _, m := range bm.EndToEnd {
					if _, ok := r.Metrics[m.Name]; err == nil && !ok {
						err = fmt.Errorf("no %s in the result", m.Name)
					}
				}
				if err != nil {
					return false, fmt.Errorf("%s seed %d %s: %w", w, seed, sides[s], errors.Join(err, runErr))
				}
				runs[s], rep.Host = r, host
			}
			rep.Pairs = append(rep.Pairs, pair{Seed: seed, First: sides[i%2], Base: runs[0], Change: runs[1]})
		}
		for _, m := range bm.EndToEnd {
			var base, change []float64
			for _, p := range rep.Pairs {
				base, change = append(base, p.Base.Metrics[m.Name].Value), append(change, p.Change.Metrics[m.Name].Value)
			}
			v := judge(m, base, change)
			rep.Verdicts = append(rep.Verdicts, v)
			passed = passed && v.Verdict != "regressed"
			fmt.Fprintf(out, "%-13s %-14s base %-10.6g [%.6g, %.6g]  change %-10.6g [%.6g, %.6g]  wins %2d/%d  %s\n",
				w, m.Name, v.Base.Median, v.Base.Q1, v.Base.Q3, v.Change.Median, v.Change.Q1, v.Change.Q3, v.Wins, pairs, v.Verdict)
		}
		for _, reason := range failures(rep.Pairs) {
			fmt.Fprintf(out, "%-13s FAIL: %s\n", w, reason)
			passed = false
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return false, err
		}
		file := filepath.Join(dir, "BENCH_"+w+".json")
		if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
		fmt.Fprintln(out, "wrote", file)
	}
	return passed, nil
}

// parseRun reads one run's standard output: the result object on the last
// line, and the text after "host: " on the host line (empty without one).
func parseRun(stdout []byte) (run, string, error) {
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	var r run
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || r.Metrics == nil {
		return run{}, "", errors.New("no result line")
	}
	for _, line := range lines {
		if host, ok := strings.CutPrefix(line, "host: "); ok {
			return r, host, nil
		}
	}
	return r, "", nil
}

// judge gives one metric's verdict over the pairs' base and change values.
func judge(m metricSpec, base, change []float64) verdict {
	sign := 1.0 // sign·(a − b) > 0 when a is better than b
	if m.Better == "lower" {
		sign = -1
	}
	better := func(a, b float64) bool { return sign*(a-b) > 0 }
	v := verdict{Metric: m.Name, Base: summarize(base), Change: summarize(change)}
	everyBetter := true
	for i, c := range change {
		if better(c, base[i]) {
			v.Wins++
		}
		for _, b := range base {
			everyBetter = everyBetter && better(c, b)
		}
	}
	iqr := v.Base.Q3 - v.Base.Q1
	tolerance := m.Bound * math.Abs(v.Base.Median)
	gap := sign * (v.Change.Median - v.Base.Median) // > 0: the change is better
	switch {
	case 10*v.Wins >= 9*len(base) && gap > iqr:
		v.Verdict = "gain"
	case iqr > tolerance && !everyBetter:
		v.Verdict = "unresolved"
	case -gap > tolerance:
		v.Verdict = "regressed"
	default:
		v.Verdict = "held"
	}
	return v
}

// summarize returns the median and quartiles of vals by the exclusive
// method.
func summarize(vals []float64) summary {
	s := slices.Clone(vals)
	sort.Float64s(s)
	quantile := func(p float64) float64 {
		rank := min(max(p*float64(len(s)+1)-1, 0), float64(len(s)-1)) // 0-based
		i := int(rank)
		return s[i] + (rank-float64(i))*(s[min(i+1, len(s)-1)]-s[i])
	}
	return summary{Median: quantile(0.5), Q1: quantile(0.25), Q3: quantile(0.75)}
}

// failures lists why a workload fails besides a regressed metric: a run
// with correct=false, or a change that failed a larger share of its ops.
func failures(ps []pair) []string {
	var out []string
	var attempted, failed [2]int
	for _, p := range ps {
		for s, r := range [2]run{p.Base, p.Change} {
			if !r.Correct {
				out = append(out, fmt.Sprintf("seed %d: the %s run reported correct=false", p.Seed, sides[s]))
			}
			attempted[s] += r.Attempted
			failed[s] += r.Failed
		}
	}
	share := func(s int) float64 { return float64(failed[s]) / float64(max(attempted[s], 1)) }
	if share(1) > share(0) {
		out = append(out, fmt.Sprintf("the change failed %d of %d ops, the base %d of %d: no gain counts",
			failed[1], attempted[1], failed[0], attempted[0]))
	}
	return out
}

// git runs git in dir, its diagnostics on stderr, and returns its trimmed
// standard output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
