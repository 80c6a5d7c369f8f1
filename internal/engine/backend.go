package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/mult"
	"optima/internal/obs"
	"optima/internal/sched"
	"optima/internal/spice"
	"optima/internal/sram"
	"optima/internal/stats"
)

// Backend names used by the built-in backends and the CLI flags.
const (
	BackendBehavioral = "behavioral"
	BackendGolden     = "golden"
)

// ValidateBackendName rejects names ByName would not accept. Callers that
// take a backend name from user input should validate it here before
// wiring it into a Context or Engine.
func ValidateBackendName(name string) error {
	switch name {
	case "", BackendBehavioral, BackendGolden:
		return nil
	}
	return fmt.Errorf("engine: unknown backend %q (want %s or %s)",
		name, BackendBehavioral, BackendGolden)
}

// ByName constructs a built-in backend from its CLI name. An empty name
// means behavioral.
func ByName(name string, model *core.Model, tech device.Tech, scfg spice.Config) (Backend, error) {
	if err := ValidateBackendName(name); err != nil {
		return nil, err
	}
	if name == BackendGolden {
		return NewGoldenBackend(tech, scfg), nil
	}
	return Behavioral{Model: model}, nil
}

// Metrics scores one design corner over the full 16×16 input space at one
// operating condition — the unit result of the evaluation service.
type Metrics struct {
	Config mult.Config
	Cond   device.PVT
	// EpsMul is the mean |error| in ADC LSBs over all input pairs (the
	// paper's ϵ_mul). The behavioral backend computes the expectation over
	// the analog noise analytically; the golden backend measures the
	// deterministic transfer.
	EpsMul float64
	// EpsLarge / EpsSmall split EpsMul by expected product
	// (≥ / < ProductMax/2) — the paper's Fig. 8 small-operand analysis.
	EpsLarge, EpsSmall float64
	// EMul is the mean multiplication energy [J] (the paper's E_mul).
	EMul float64
	// SigmaMaxLSB is the analog standard deviation at the maximum discharge
	// (15,15) in LSBs — the paper's variation-corner criterion. The
	// behavioral backend computes it analytically from Eq. 6; the golden
	// backend estimates it by Monte-Carlo mismatch sampling
	// (GoldenSigmaSamples).
	SigmaMaxLSB float64
	// SigmaMaxVolt is the same in volts (the paper quotes 5.04 mV worst case).
	SigmaMaxVolt float64
	// LSBVolt is the corner's calibrated ADC step.
	LSBVolt float64
}

// FOM is the paper's Eq. 9 figure of merit 1/(ϵ_mul·E_mul), in 1/(LSB·fJ).
func (m Metrics) FOM() float64 {
	if m.EpsMul <= 0 || m.EMul <= 0 {
		return 0
	}
	return 1 / (m.EpsMul * m.EMul * 1e15)
}

// Eval is the evaluation context the engine hands the batch seam and,
// through it, every backend call: the submission's cancellation context,
// its worker budget, and where its telemetry goes. Timing never flows back
// into results — Metrics are identical for every Eval.
type Eval struct {
	// Ctx cancels the submission (nil = Background).
	Ctx context.Context
	// Workers is the worker budget. A Dispatcher splits it across the
	// batch's cells; a Backend may spend up to Workers goroutines inside
	// one cell. <= 0 means GOMAXPROCS, 1 means serial.
	Workers int
	// Rec receives spans and metrics (nil records nothing); Parent is the
	// span the work nests under (0 = root).
	Rec    *obs.Recorder
	Parent obs.SpanID
}

// Context returns Ctx, defaulting to Background.
func (ev Eval) Context() context.Context {
	if ev.Ctx != nil {
		return ev.Ctx
	}
	return context.Background()
}

// Backend evaluates one design corner at one operating condition. An
// implementation must be deterministic (same job, same result, at any
// Eval) and safe for concurrent use — the engine caches results by
// (backend name, job) and fans jobs out across workers.
type Backend interface {
	Name() string
	EvaluateCell(ev Eval, job Job) (Metrics, error)
}

// Dispatcher runs a batch of cells on a backend: the engine's one batch
// seam. The engine hands EvaluateJobs every cell of a submission that
// missed all cache tiers, with the submission's total worker budget in
// ev.Workers. Local is the in-process implementation; internal/remote's
// Fleet ships cells to worker processes.
//
// The contract: onDone is called exactly once per job index, from any
// goroutine, with either the job's Metrics or its error; a job abandoned
// because ev's context was canceled reports an error wrapping ctx.Err().
// EvaluateJobs returns only after the last onDone call has returned.
type Dispatcher interface {
	EvaluateJobs(ev Eval, backend Backend, jobs []Job, onDone func(i int, met Metrics, err error))
}

// Local is the default Dispatcher: it fans the batch out on the shared
// scheduler (internal/sched), splitting the worker budget between job-level
// fan-out and each cell's intra-job share (splitBudget). A cell whose turn
// comes after cancellation is reported with ctx.Err() without running, and
// a panicking backend is recovered into that cell's error.
type Local struct{}

// EvaluateJobs implements Dispatcher.
func (Local) EvaluateJobs(ev Eval, backend Backend, jobs []Job, onDone func(i int, met Metrics, err error)) {
	ctx := ev.Context()
	jobWorkers, intra, extra := splitBudget(ev.Workers, len(jobs))
	_, _ = sched.Map(jobWorkers, jobs, func(i int, job Job) (struct{}, error) {
		if err := ctx.Err(); err != nil {
			onDone(i, Metrics{}, err)
			return struct{}{}, nil
		}
		cell := ev
		cell.Workers = intra
		if i < extra {
			cell.Workers++
		}
		met, err := evaluateCell(backend, cell, job)
		onDone(i, met, err)
		return struct{}{}, nil
	})
}

// evaluateCell runs one cell, recovering a panicking backend into the
// cell's error.
func evaluateCell(backend Backend, ev Eval, job Job) (met Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: %s backend panicked on corner %v at %v: %v", backend.Name(), job.Config, job.Cond, r)
		}
	}()
	return backend.EvaluateCell(ev, job)
}

// splitBudget divides a total worker budget (<= 0 = GOMAXPROCS) across n
// runnable jobs: up to n jobs run concurrently, each granted intra workers
// of internal parallelism, with the first extra jobs granted one more so a
// budget that doesn't divide evenly is not stranded. The sum of grants over
// any jobWorkers concurrent jobs never exceeds the budget (when n <= total
// every job may be in flight and the grants sum to exactly total;
// otherwise intra is 1). A single job gets the whole budget — the case
// that makes a lone golden corner ~Nx faster.
func splitBudget(total, n int) (jobWorkers, intra, extra int) {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	jobWorkers = total
	if jobWorkers > n {
		jobWorkers = n
	}
	if jobWorkers < 1 {
		jobWorkers = 1
	}
	intra = total / jobWorkers
	if intra < 1 {
		intra = 1
	}
	if n <= total {
		extra = total % jobWorkers
	}
	return jobWorkers, intra, extra
}

// Behavioral is the fast backend: OPTIMA's calibrated models, with the
// error expectation over mismatch (Eq. 6) and readout noise computed
// analytically — no Monte-Carlo jitter, so corner selection is
// deterministic.
type Behavioral struct {
	Model *core.Model
}

// Name implements Backend.
func (Behavioral) Name() string { return BackendBehavioral }

// EvaluateCell implements Backend. The behavioral model is serial and
// untraced, so ev is unused.
func (b Behavioral) EvaluateCell(_ Eval, job Job) (Metrics, error) {
	return b.Evaluate(job.Config, job.Cond)
}

// Evaluate scores one corner at one condition.
func (b Behavioral) Evaluate(cfg mult.Config, cond device.PVT) (Metrics, error) {
	bm, err := mult.NewBehavioral(b.Model, cfg, cond)
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{Config: cfg, Cond: cond, LSBVolt: bm.LSBVolt}
	err = m.accumulate(func(a, d uint) (eps, energy float64, err error) {
		// The deterministic table path returns exactly Multiply(a, d, nil)
		// without the per-call model evaluations or event-kernel
		// allocations — the metrics (and therefore every persisted cache
		// entry) are unchanged.
		r, err := bm.MultiplyDet(a, d)
		if err != nil {
			return 0, 0, err
		}
		sigma := math.Hypot(r.Sigma, mult.DefaultADCSigma)
		eps = ExpectedAbsError(r.VComb-bm.OffsetVolt, sigma, bm.LSBVolt, r.Expected)
		if a == mult.OperandMax && d == mult.OperandMax {
			m.SigmaMaxVolt = r.Sigma
			m.SigmaMaxLSB = r.Sigma / bm.LSBVolt
		}
		return eps, r.Energy, nil
	})
	if err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// Golden is the reference backend: every evaluation runs the full input
// space through transistor-level transient simulation (176 transients for
// a cold corner — orders of magnitude slower; that gap is the paper's
// headline speed-up). The input space costs 64 of them: with matched cells
// a bit line's discharge depends only on (code, bit), so the 256 pairs
// compose from a mult.GoldenTable. The backend memoizes the 16
// per-configuration ADC trim transients across operating conditions: the
// trim depends only on the configuration, so a PVT sweep over one corner
// pays it once instead of once per condition. Use NewGoldenBackend; the
// zero value also works (the trim cache initializes lazily).
//
// EvaluateCell fans the transients of one corner out across the cell's
// worker budget, with Metrics guaranteed identical at any budget.
type Golden struct {
	Tech  device.Tech
	Spice spice.Config

	mu    sync.Mutex
	trims map[mult.Config]*trimEntry
	// cals counts the trim calibrations actually run: the one home of the
	// optima_trim_calibrations_total series. It
	// is allocated apart from the backend so that a registry holding it
	// never keeps the trim cache alive.
	cals *atomic.Uint64
}

// trimEntry is one trim-cache slot with singleflight semantics: the first
// claimant computes, concurrent claimants wait on done instead of running
// a duplicate 16-transient calibration.
type trimEntry struct {
	done chan struct{}
	trim mult.GoldenTrim
	err  error
}

// NewGoldenBackend returns a golden backend with an empty trim cache.
func NewGoldenBackend(tech device.Tech, scfg spice.Config) *Golden {
	return &Golden{Tech: tech, Spice: scfg}
}

// Name implements Backend.
func (*Golden) Name() string { return BackendGolden }

// trimFor returns the configuration's ADC trim, calibrating on first use
// with up to intra workers. Concurrent first calls of the same
// configuration share one calibration: the first claims a cache entry and
// computes, the rest wait on its done channel (the same claimed-entry
// pattern as the engine's result cache). Errors are cached — the
// calibration is deterministic, so a failing configuration fails the same
// way every time. A calibration that runs is counted in cals, which rec's
// registry reads.
func (g *Golden) trimFor(cfg mult.Config, intra int, rec *obs.Recorder, parent obs.SpanID) (mult.GoldenTrim, error) {
	g.mu.Lock()
	if g.trims == nil {
		g.trims = map[mult.Config]*trimEntry{}
		g.cals = new(atomic.Uint64)
	}
	if ent, ok := g.trims[cfg]; ok {
		g.mu.Unlock()
		<-ent.done
		return ent.trim, ent.err
	}
	ent := &trimEntry{done: make(chan struct{})}
	g.trims[cfg] = ent
	cals := g.cals
	g.mu.Unlock()

	rec.Metrics().CounterOf("optima_trim_calibrations_total",
		"golden ADC trim calibrations run (16 transients each)", cals)
	cals.Add(1)
	var arg string
	if rec != nil {
		arg = fmt.Sprintf("%v", cfg)
	}
	span := rec.StartSpan(parent, obs.CatTrim, "trim-calibrate", arg)
	func() {
		// done closes on every path: a panicking calibration is recovered
		// into the entry's error so waiters never block on a dead claim.
		defer func() {
			if r := recover(); r != nil {
				ent.err = fmt.Errorf("engine: golden trim calibration panicked for %v: %v", cfg, r)
			}
			close(ent.done)
		}()
		ent.trim, ent.err = mult.CalibrateGoldenTrimObserved(g.Tech, cfg, g.Spice, intra, rec, span.ID())
	}()
	span.End()
	return ent.trim, ent.err
}

// GoldenSigmaSamples is the Monte-Carlo mismatch population the golden
// backend uses to estimate σ at the maximum discharge — the variation-
// corner criterion the behavioral backend computes analytically from
// Eq. 6. Each sample simulates the four bit lines of the (15,15) input.
const GoldenSigmaSamples = 24

// goldenSigmaSeed is the base seed of the Monte-Carlo sigma estimate.
// Sample s draws from its own generator seeded goldenSigmaSeed+s
// (splitmix-decorrelated by stats.NewRNG), so the sample set — and with it
// the Metrics — is independent of how samples are scheduled across intra-
// job workers.
const goldenSigmaSeed = 0x600dc0de

// EvaluateCell implements Backend. The per-corner transients — the 16
// trim transients of a cold configuration, the 64 (code, bit) transients
// of the input-space table, and the four bit lines of each of the
// GoldenSigmaSamples mismatch samples of the (15,15) input (176 in all) —
// fan out across up to ev.Workers workers, each with its own integrator
// scratch and — for the Monte-Carlo phase — its own per-sample seeded RNG
// and cell state. Workers fill fixed slots indexed by (code, bit) and by
// sample; the 256 input pairs compose from the (code, bit) slots serially
// in (a, d) order, and the σ reduction walks the samples in order, so the
// result is byte-identical to the serial path at any worker count — the
// engine's content-addressed cache contract.
//
// With ev.Rec set, a cold configuration records a trim span (with
// per-transient children) and the input-space and Monte-Carlo phases one
// span each, all under ev.Parent.
func (g *Golden) EvaluateCell(ev Eval, job Job) (Metrics, error) {
	cfg, cond := job.Config, job.Cond
	trim, err := g.trimFor(cfg, ev.Workers, ev.Rec, ev.Parent)
	if err != nil {
		return Metrics{}, err
	}
	gm, err := mult.NewGoldenWithTrim(g.Tech, cfg, cond, g.Spice, trim)
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{Config: cfg, Cond: cond, LSBVolt: gm.LSBVolt}

	// Input space: the 16×4 distinct (code, bit) transients fill the
	// matched-cell table, then the 256 pairs compose from it serially in
	// (a, d) order through the shared scaffold.
	var tableArg string
	if ev.Rec != nil {
		tableArg = fmt.Sprintf("%d transients", mult.TableTransients)
	}
	tableSpan := ev.Rec.StartSpan(ev.Parent, obs.CatPhase, "input-space", tableArg)
	table, err := gm.Table(ev.Workers)
	tableSpan.End()
	if err != nil {
		return Metrics{}, err
	}
	if err := m.accumulate(func(a, d uint) (eps, energy float64, err error) {
		r, err := table.Multiply(a, d)
		if err != nil {
			return 0, 0, err
		}
		return math.Abs(float64(r.ErrorLSB())), r.Energy, nil
	}); err != nil {
		return Metrics{}, err
	}

	// Monte-Carlo workers reuse integrator buffers between transients; the
	// pool hands each in-flight call a private Scratch.
	var scratch sync.Pool

	// σ at the maximum discharge via Monte-Carlo mismatch sampling, one
	// deterministic RNG stream per sample (seed fixed — same job, same
	// result), reduced serially in sample order.
	sampleIdx := make([]int, GoldenSigmaSamples)
	for s := range sampleIdx {
		sampleIdx[s] = s
	}
	var mcArg string
	if ev.Rec != nil {
		mcArg = fmt.Sprintf("%d samples", GoldenSigmaSamples)
	}
	mcSpan := ev.Rec.StartSpan(ev.Parent, obs.CatPhase, "monte-carlo", mcArg)
	vcombs, err := sched.Map(ev.Workers, sampleIdx, func(_ int, s int) (float64, error) {
		scr, _ := scratch.Get().(*spice.Scratch)
		if scr == nil {
			scr = &spice.Scratch{}
		}
		defer scratch.Put(scr)
		var cells sram.Word
		cells.SampleMismatch(g.Tech, stats.NewRNG(goldenSigmaSeed+uint64(s)))
		r, err := gm.MultiplyCells(mult.OperandMax, mult.OperandMax, &cells, scr)
		if err != nil {
			return 0, err
		}
		return r.VComb, nil
	})
	mcSpan.End()
	if err != nil {
		return Metrics{}, err
	}
	var vAcc stats.Accumulator
	for _, v := range vcombs {
		vAcc.Add(v)
	}
	m.SigmaMaxVolt = vAcc.StdDev()
	m.SigmaMaxLSB = m.SigmaMaxVolt / gm.LSBVolt
	return m, nil
}

// EvaluateBudget is EvaluateCell without telemetry: one corner with up to
// intra workers (<= 0 = GOMAXPROCS, 1 = serial).
//
//lint:ignore unusedapi bench/ (a separate module) times golden cells through it
func (g *Golden) EvaluateBudget(cfg mult.Config, cond device.PVT, intra int) (Metrics, error) {
	return g.EvaluateCell(Eval{Workers: intra}, Job{Config: cfg, Cond: cond})
}

// accumulate scores the full 16×16 input space with the supplied per-pair
// evaluator, filling the mean error/energy fields. Both backends share
// this scaffold so the metric definitions (large/small split, averaging)
// cannot drift apart.
func (m *Metrics) accumulate(eval func(a, d uint) (eps, energy float64, err error)) error {
	var epsAcc, largeAcc, smallAcc, eAcc stats.Accumulator
	for a := uint(0); a <= mult.OperandMax; a++ {
		for d := uint(0); d <= mult.OperandMax; d++ {
			eps, energy, err := eval(a, d)
			if err != nil {
				return err
			}
			epsAcc.Add(eps)
			if int(a*d) >= mult.ProductMax/2 {
				largeAcc.Add(eps)
			} else {
				smallAcc.Add(eps)
			}
			eAcc.Add(energy)
		}
	}
	m.EpsMul = epsAcc.Mean()
	m.EpsLarge = largeAcc.Mean()
	m.EpsSmall = smallAcc.Mean()
	m.EMul = eAcc.Mean()
	return nil
}

// ExpectedAbsError returns E[|code − expected|] for a Gaussian analog value
// N(mu, sigma) quantized with the given LSB and clamped to the ADC range.
// Exported for the per-result profile analyses in internal/dse.
func ExpectedAbsError(mu, sigma, lsb float64, expected int) float64 {
	if sigma <= 0 {
		code := int(math.Round(mu / lsb))
		if code < 0 {
			code = 0
		}
		if code > mult.ADCMax {
			code = mult.ADCMax
		}
		return math.Abs(float64(code - expected))
	}
	// Sum |k − expected|·P(code = k) over codes within ±6σ of the mean.
	lo := int(math.Floor((mu-6*sigma)/lsb)) - 1
	hi := int(math.Ceil((mu+6*sigma)/lsb)) + 1
	if lo < 0 {
		lo = 0
	}
	if hi > mult.ADCMax {
		hi = mult.ADCMax
	}
	inv := 1 / (sigma * math.Sqrt2)
	cdf := func(v float64) float64 { return 0.5 * (1 + math.Erf((v-mu)*inv)) }
	var sum float64
	for k := lo; k <= hi; k++ {
		lower := (float64(k) - 0.5) * lsb
		upper := (float64(k) + 0.5) * lsb
		var p float64
		switch {
		case k == 0:
			p = cdf(upper) // everything below the first boundary clamps to 0
		case k == mult.ADCMax:
			p = 1 - cdf(lower)
		default:
			p = cdf(upper) - cdf(lower)
		}
		sum += math.Abs(float64(k-expected)) * p
	}
	// Account for truncated tails outside [lo, hi] when they clamp.
	if lo > 0 {
		sum += math.Abs(float64(lo-expected)) * cdf((float64(lo)-0.5)*lsb)
	}
	if hi < mult.ADCMax {
		sum += math.Abs(float64(hi-expected)) * (1 - cdf((float64(hi)+0.5)*lsb))
	}
	return sum
}
