// Command bench is the repository benchmark: it drives the OPTIMA stack
// through its public entry points on one of four workloads, checks every
// operation's output, and prints the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the root of the repository:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// See bench/README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	smoke    bool
	workdir  string
}

func main() {
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed; inputs are a pure function of it")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed phase [s]")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of a traced run (default <workdir>/trace-<workload>.json)")
	fs.BoolVar(&cfg.smoke, "smoke", false, "run at minimal size, ignoring -seconds")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for stores and the trace file")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloadByName(cfg.workload); !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if !(cfg.seconds > 0) {
		return cfg, fmt.Errorf("-seconds %v: want > 0", cfg.seconds)
	}
	cfg.trace = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = cfg.workdir + "/trace-" + cfg.workload + ".json"
	}
	return cfg, nil
}

// summary is a finished run: the correctness verdict, the op accounting, and
// the metric values with their sample counts.
type summary struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	values            map[string]float64
	samples           map[string]int
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r summary) result() jsonResult {
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jsonMetric{Value: r.values[m.name], Unit: m.unit}
	}
	return out
}

// printTable writes the metrics with units and sample counts.
func (r summary) printTable(w io.Writer) {
	for _, m := range r.metrics {
		note := ""
		if m.name == "op_p95_ms" && r.samples[m.name] < minTailSamples {
			note = "  (n < 200: one of the slowest ops, not a tail)"
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-9s n=%d%s\n", m.name, r.values[m.name], m.unit, r.samples[m.name], note)
	}
	fmt.Fprintf(w, "  ops attempted=%d failed=%d error_rate=%g correct=%v\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)), r.correct)
}

// printHost writes the host metadata every result is read against.
func printHost(w io.Writer, cfg config) {
	fmt.Fprintf(w, "bench: workload=%s seed=%d seconds=%g trace=%v smoke=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke)
	fmt.Fprintf(w, "host: go=%s goos=%s goarch=%s gomaxprocs=%d cpu=%q\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), cpuModel())
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// errList joins the failures of one run, keeping the first few.
type errList struct {
	errs []error
	n    int
}

func (l *errList) add(err error) {
	if err == nil {
		return
	}
	l.n++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err)
	}
}

func (l *errList) err() error { return errors.Join(l.errs...) }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
