package main

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"optima/internal/core"
	"optima/internal/mult"
	"optima/internal/obs"
)

// workload is one set of inputs the benchmark runs. Its setup builds an
// instance whose ops the runner times in a closed loop of clients.
type workload struct {
	name string
	why  string
	// perCPU runs one closed-loop client per CPU; otherwise one client
	// issues the ops.
	perCPU bool
	// warmup ops run untimed before the timed phase.
	warmup int
	// smokeOps bounds the timed phase of a -smoke run.
	smokeOps int
	setup    func(e *env) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// op runs op k on behalf of client c and checks its output; any error
	// counts the op as failed.
	op(c, k int) error
	// cells counts the config×condition cells the instance's engines have
	// resolved so far, from every cache tier and the backends.
	cells() uint64
	// counts books the per-layer counts of a traced instance after ops
	// ops.
	counts(l *layers, ops int)
	// probe names the inputs the per-layer probes run on.
	probe() probeInputs
	// check runs the checks that need the whole timed phase and returns
	// the digest of the instance's output at its seed (pinnedDigest).
	check() (string, error)
	// close releases everything the instance holds.
	close() error
}

// probeInputs are a workload's own inputs for the per-layer probes.
type probeInputs struct {
	cfg mult.Config
	// warmSearch reruns the workload's last search on its now-warm
	// engines; nil for a workload without searches.
	warmSearch func() error
}

var workloads = []workload{
	{name: wGolden, why: "the paper reproduction: 93 cold golden cells per op, spice and golden trim do the work",
		smokeOps: 1, setup: setupGolden},
	{name: wExplore, why: "a cold robust search with golden promotion: behavioral tables, batching, ranking and store writes",
		warmup: 1, smokeOps: 1, setup: setupExplore},
	{name: wReplay, why: "a search replayed on fresh engines from a reopened store: store reads and cache hits, no evaluation",
		warmup: 1, smokeOps: 3, setup: setupReplay},
	{name: wFleet, why: "server jobs over loopback HTTP whose misses ship to a remote worker: routing, JSON, sessions, wire",
		perCPU: true, smokeOps: 4, setup: setupFleet},
}

// sizes scales a run: the full benchmark, or the -smoke run that exercises
// every path at minimal size.
type sizes struct {
	smoke  bool
	calib  core.CalibrationConfig
	setups int
	// speedupReps and mcSamples size the paper's speed-up experiment.
	speedupReps, mcSamples int
	explore                exploreSize
	// probeReps and goldenProbes are the per-layer probe repetitions.
	probeReps, goldenProbes int
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{smoke: true, calib: core.QuickCalibration(), setups: 1,
			speedupReps: 1, mcSamples: 4,
			explore:   exploreSize{budget: 8, rungs: 2, finalists: 1, conditions: "TT@1V@27C"},
			probeReps: 2, goldenProbes: 1}
	}
	return sizes{calib: core.DefaultCalibration(), setups: 3,
		speedupReps: 16, mcSamples: 100,
		explore: exploreSize{tauSub: 32, v0Sub: 8, fsSub: 8, budget: 1024, rungs: 3, finalists: 2,
			conditions: "TT@1V@27C,SS@0.9V@60C,FF@1.1V@0C"},
		probeReps: 64, goldenProbes: 3}
}

// env is what one setup of a workload runs with.
type env struct {
	seed uint64
	sz   sizes
	// workers is the engine worker budget (GOMAXPROCS); clients is the
	// number of closed-loop clients issuing ops.
	workers, clients int
	model            *core.Model
	// rec and lay are nil in an untraced setup.
	rec *obs.Recorder
	lay *layers
	// dir is the setup's private scratch directory.
	dir string
}

// call is a benchmark span around one public call.
type call struct {
	t    obs.Timer
	lay  *layers
	name string
}

// begin opens a benchmark span named "<layer>.<call>"; untraced it is inert.
func (e *env) begin(name string) call {
	return call{t: e.rec.StartSpan(0, benchCat, name, ""), lay: e.lay, name: name}
}

func (c call) id() obs.SpanID { return c.t.ID() }

func (c call) end() {
	if d := c.t.End(); c.lay != nil {
		c.lay.addDur(c.name, d)
	}
}

// calibrate calibrates the setup's model.
func (e *env) calibrate() error {
	c := e.begin("core.calibrate")
	m, err := core.Calibrate(e.sz.calib)
	c.end()
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}
	e.model = m
	return nil
}

// phase is the record of one timed phase.
type phase struct {
	durs    []float64 // seconds per timed op
	ops     int       // ops run, warm-up included
	failed  int
	cells   uint64
	elapsed time.Duration
}

func (p phase) cellsPerS() float64 { return float64(p.cells) / p.elapsed.Seconds() }

// runPhase runs the warm-up ops, then the timed ops until seconds have
// passed (or smokeOps ops in a smoke run), from e.clients closed-loop
// clients. An op in flight at the deadline completes and counts.
func runPhase(w workload, inst instance, e *env, seconds float64, errs *errList) phase {
	var p phase
	for k := 0; k < w.warmup && !e.sz.smoke; k++ {
		p.ops++
		if err := inst.op(0, k); err != nil {
			p.failed++
			errs.add(fmt.Errorf("warm-up op %d: %w", k, err))
		}
	}
	first := p.ops
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var wg sync.WaitGroup
	c0 := inst.cells()
	start := time.Now()
	deadline := time.Duration(seconds * float64(time.Second))
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if e.sz.smoke && k-first >= w.smokeOps || !e.sz.smoke && time.Since(start) >= deadline {
					return
				}
				t := time.Now()
				err := inst.op(c, k)
				d := time.Since(t)
				mu.Lock()
				p.durs = append(p.durs, d.Seconds())
				if err != nil {
					p.failed++
					errs.add(fmt.Errorf("op %d: %w", k, err))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cells = inst.cells() - c0
	p.ops += len(p.durs)
	return p
}

// run executes one benchmark invocation and prints its human-readable
// report to out; the caller prints the JSON result line.
func run(cfg config, out io.Writer) (summary, error) {
	w, _ := workloadByName(cfg.workload)
	printHost(out, cfg)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return summary{}, fmt.Errorf("workdir: %w", err)
	}
	r := &runner{cfg: cfg, w: w, sz: sizesFor(cfg.smoke), out: out}
	var rep summary
	var err error
	if cfg.trace {
		rep, err = r.traced()
	} else {
		rep, err = r.untraced()
	}
	if err != nil {
		return summary{}, err
	}
	rep.correct = r.errs.n == 0
	rep.attempted, rep.failed = r.attempted, r.failed
	rep.printTable(out)
	if e := r.errs.err(); e != nil {
		fmt.Fprintf(out, "FAILED checks:\n%v\n", e)
	}
	return rep, nil
}

type runner struct {
	cfg               config
	w                 workload
	sz                sizes
	out               io.Writer
	errs              errList
	attempted, failed int
	setups            int
}

// setup builds one instance in a fresh scratch directory.
func (r *runner) setup(rec *obs.Recorder, lay *layers) (*env, instance, error) {
	dir := filepath.Join(r.cfg.workdir, fmt.Sprintf("%s-%d-%d", r.w.name, os.Getpid(), r.setups))
	r.setups++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("setup dir: %w", err)
	}
	e := &env{seed: r.cfg.seed, sz: r.sz, workers: runtime.GOMAXPROCS(0), clients: 1, rec: rec, lay: lay, dir: dir}
	if r.w.perCPU {
		e.clients = e.workers
	}
	inst, err := r.w.setup(e)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, fmt.Errorf("%s setup: %w", r.w.name, err)
	}
	return e, inst, nil
}

// teardown runs the instance's final checks (when check is set) and
// releases it.
func (r *runner) teardown(e *env, inst instance, check bool) error {
	if check {
		dig, err := inst.check()
		r.errs.add(err)
		pin := pinnedDigest(r.w.name, r.cfg.seed, r.sz.smoke)
		fmt.Fprintf(r.out, "digest: %s (pinned: %s)\n", dig, cmp.Or(pin, "none at this seed"))
		r.errs.add(checkPinned(r.w.name, pin, dig))
	}
	err := inst.close()
	if rerr := os.RemoveAll(e.dir); err == nil && rerr != nil {
		err = fmt.Errorf("remove scratch dir: %w", rerr)
	}
	return err
}

func (r *runner) phase(inst instance, e *env, seconds float64) phase {
	p := runPhase(r.w, inst, e, seconds, &r.errs)
	r.attempted += p.ops
	r.failed += p.failed
	return p
}

// untraced measures the end-to-end metrics: several setups (set-up time is
// their median), one timed phase on the last, then the paper's speed-up
// and accuracy figures and the final checks.
func (r *runner) untraced() (summary, error) {
	var setupS []float64
	var e *env
	var inst instance
	for i := 0; i < r.sz.setups; i++ {
		if inst != nil {
			if err := r.teardown(e, inst, false); err != nil {
				return summary{}, err
			}
		}
		start := time.Now()
		var err error
		if e, inst, err = r.setup(nil, nil); err != nil {
			return summary{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	p := r.phase(inst, e, r.cfg.seconds)
	rss := maxRSSMB()
	cl, err := paperClaims(e, inst)
	if err != nil {
		r.teardown(e, inst, false)
		return summary{}, err
	}
	r.errs.add(cl.checkFloors(r.sz.smoke))
	if err := r.teardown(e, inst, true); err != nil {
		return summary{}, err
	}
	rep := summary{metrics: endToEnd, values: map[string]float64{}, samples: map[string]int{}}
	set := func(name string, v float64, n int) { rep.values[name], rep.samples[name] = v, n }
	ms := make([]float64, len(p.durs))
	for i, d := range p.durs {
		ms[i] = d * 1e3
	}
	set("setup_s", median(setupS), len(setupS))
	set("cells_per_s", p.cellsPerS(), len(p.durs))
	set("op_p50_ms", median(ms), len(ms))
	set("op_p95_ms", percentile(ms, 95), len(ms))
	set("max_rss_mb", rss, 1)
	set("golden_mul_us", cl.goldenMulUS, cl.reps)
	set("model_rms_mv", cl.rmsMV, 1)
	set("model_err_lsb", cl.errLSB, 1)
	return rep, nil
}

// traced measures the per-layer metrics: an untraced and a traced phase of
// half the run each, on fresh setups, so their throughputs give the
// tracing overhead; then the probes and the speed-up experiment.
func (r *runner) traced() (summary, error) {
	half := r.cfg.seconds / 2
	e0, inst0, err := r.setup(nil, nil)
	if err != nil {
		return summary{}, err
	}
	plain := r.phase(inst0, e0, half)
	if err := r.teardown(e0, inst0, true); err != nil {
		return summary{}, err
	}

	rec := obs.NewRecorder(obs.RecorderOptions{Capacity: traceCapacity})
	lay := newLayers()
	e, inst, err := r.setup(rec, lay)
	if err != nil {
		return summary{}, err
	}
	reg0, t0 := registrySamples(rec), rec.Now()
	p := r.phase(inst, e, half)
	t1 := rec.Now()
	lay.registryDelta(reg0, registrySamples(rec), p.ops)
	inst.counts(lay, p.ops)
	lay.set("bench.trace_overhead_pct", 100*(plain.cellsPerS()-p.cellsPerS())/plain.cellsPerS(), 2)
	if err := runProbes(e, inst.probe()); err != nil {
		r.teardown(e, inst, false)
		return summary{}, err
	}
	cl, err := paperClaims(e, inst)
	if err != nil {
		r.teardown(e, inst, false)
		return summary{}, err
	}
	r.errs.add(cl.checkFloors(r.sz.smoke))
	lay.set("exp.behavioral_mul_ns", cl.behavioralMulNS, cl.reps)
	lay.set("exp.speedup_input_space_x", cl.inputSpaceX, cl.reps)
	lay.set("exp.speedup_monte_carlo_x", cl.monteCarloX, cl.reps)
	lay.set("spice.transients_per_golden_mul", cl.transientsPerMul, cl.reps)
	if err := r.teardown(e, inst, true); err != nil {
		return summary{}, err
	}

	spans := attributeRoots(rec.Snapshot())
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "bench: the span ring overflowed; %d oldest spans were dropped\n", d)
	}
	var phaseSpans []obs.Span
	for _, s := range spans {
		if s.Start >= t0 && s.Start < t1 {
			phaseSpans = append(phaseSpans, s)
		}
	}
	self := selfTimes(phaseSpans)
	lay.setSelf(self, phaseSpans)
	printSelfTimes(r.out, self)
	if err := writeTrace(r.cfg.traceOut, spans); err != nil {
		return summary{}, err
	}
	fmt.Fprintf(r.out, "trace: %d spans written to %s\n", len(spans), r.cfg.traceOut)
	return lay.summary(), nil
}

// traceCapacity bounds the spans a traced run keeps: enough for every span
// of the longest traced phase, so the per-layer self times are complete.
const traceCapacity = 1 << 18

func writeTrace(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	werr := obs.WriteTrace(f, spans)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("trace: %w", werr)
	}
	return nil
}

// printSelfTimes writes the per-layer self-time table, largest first.
func printSelfTimes(w io.Writer, self map[string]time.Duration) {
	var total time.Duration
	names := make([]string, 0, len(self))
	for name, d := range self {
		names = append(names, name)
		total += d
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintln(w, "self time by layer over the traced timed phase:")
	for _, name := range names {
		fmt.Fprintf(w, "  %-10s %12s %6.1f%%\n", name, obs.FormatDuration(self[name]),
			100*self[name].Seconds()/max(total.Seconds(), 1e-12))
	}
}

// maxRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
