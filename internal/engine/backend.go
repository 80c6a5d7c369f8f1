package engine

import (
	"context"
	"fmt"
	"math"
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

// Finite reports whether every metric word is a finite number. The
// built-in backends return an error instead of a non-finite metric, so one
// met after them is damage or a lying peer: the store neither writes nor
// loads one, and the fleet refuses one off the wire.
func (m Metrics) Finite() bool {
	for _, v := range [...]float64{m.EpsMul, m.EpsLarge, m.EpsSmall, m.EMul, m.SigmaMaxLSB, m.SigmaMaxVolt, m.LSBVolt} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
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
// fan-out and each cell's intra-job share (sched.Split). A cell whose turn
// comes after cancellation is reported with ctx.Err() without running, and
// a panicking backend is recovered into that cell's error.
type Local struct{}

// EvaluateJobs implements Dispatcher.
func (Local) EvaluateJobs(ev Eval, backend Backend, jobs []Job, onDone func(i int, met Metrics, err error)) {
	ctx := ev.Context()
	jobWorkers, intra, extra := sched.Split(ev.Workers, len(jobs))
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
		// from models evaluated once per (code, bit) sampling instant
		// instead of per call — the metrics (and therefore every
		// persisted cache entry) are unchanged.
		r, err := bm.MultiplyDet(a, d)
		if err != nil {
			return 0, 0, err
		}
		sigma := math.Hypot(r.Sigma, mult.DefaultADCSigma)
		eps = ExpectedAbsError(r.VComb, sigma, bm.LSBVolt, r.Expected)
		if a == mult.OperandMax && d == mult.OperandMax {
			m.SigmaMaxVolt = r.Sigma
			m.SigmaMaxLSB = r.Sigma / bm.LSBVolt
		}
		return eps, r.Energy, nil
	})
	if err != nil {
		return Metrics{}, err
	}
	// Calibration refuses a non-finite ADC gain, but a finite yet absurd
	// corner (say V_DAC,FS = 1e30 V) can still overflow the energy or σ
	// models. The engine would cache and persist a NaN metric as a result,
	// so it is an error instead.
	if !m.Finite() {
		return Metrics{}, fmt.Errorf("engine: behavioral metrics of tau0 %g, VDAC0 %g, VDACFS %g at %v are not finite",
			cfg.Tau0, cfg.VDAC0, cfg.VDACFS, cond)
	}
	return m, nil
}

// Golden is the reference backend: every evaluation runs the full input
// space through transistor-level transient simulation (orders of magnitude
// slower; that gap is the paper's headline speed-up). A corner reads 176
// bit-line discharges: 16 trim waveforms, the 64 (code, bit) discharges
// its 256 input pairs compose from (with matched cells a bit line's
// discharge depends only on (code, bit): mult.GoldenTable), and four per
// Monte-Carlo sample. The backend's spice.Trajectories memo integrates
// each distinct discharge once for every bit time, τ0 sibling, shared
// Monte-Carlo sample and trim that reads it. The backend also memoizes the
// per-configuration ADC trim across operating conditions, so a PVT sweep
// over one corner pays it once. Both memos are built by NewGoldenBackend,
// together with the technology and solver settings they are keyed under,
// and live and die with the backend.
//
// EvaluateCell fans the discharges of one corner out across the cell's
// worker budget, with Metrics guaranteed identical at any budget and in
// any order of cells.
type Golden struct {
	tech device.Tech
	scfg spice.Config

	mu sync.Mutex
	// trims holds one sync.OnceValues per configuration: the first caller
	// calibrates, concurrent and later ones get its LSB or error.
	trims map[mult.Config]func() (float64, error)
	// cals counts the trim calibrations actually run: the one home of the
	// optima_trim_calibrations_total series. It is allocated apart from the
	// backend so that a registry holding it never keeps the caches alive.
	cals *atomic.Uint64
	traj *spice.Trajectories
}

// NewGoldenBackend returns a golden backend for the technology and solver
// settings, with empty caches.
func NewGoldenBackend(tech device.Tech, scfg spice.Config) *Golden {
	return &Golden{tech: tech, scfg: scfg, trims: map[mult.Config]func() (float64, error){},
		cals: new(atomic.Uint64), traj: spice.NewTrajectories()}
}

// Name implements Backend.
func (*Golden) Name() string { return BackendGolden }

// trimFor returns the configuration's ADC trim LSB, calibrating on first
// use with up to intra workers. Concurrent first calls of the same
// configuration share one calibration: the entry is created under g.mu and
// called outside it, and sync.OnceValues runs it once while the rest wait.
// Errors are cached — the calibration is deterministic, so a failing
// configuration fails the same way every time. A calibration that runs is
// counted in cals, which rec's registry reads.
func (g *Golden) trimFor(cfg mult.Config, intra int, rec *obs.Recorder, parent obs.SpanID) (float64, error) {
	g.mu.Lock()
	trim, ok := g.trims[cfg]
	if !ok {
		trim = sync.OnceValues(func() (lsb float64, err error) {
			rec.Metrics().CounterOf("optima_trim_calibrations_total",
				"golden ADC trim calibrations run (16 transients each)", g.cals)
			g.cals.Add(1)
			var arg string
			if rec != nil {
				arg = fmt.Sprintf("%v", cfg)
			}
			span := rec.StartSpan(parent, obs.CatTrim, "trim-calibrate", arg)
			defer span.End()
			// A panicking calibration is recovered into the trim's error, so
			// every caller gets an error instead of the panic.
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("engine: golden trim calibration panicked for %v: %v", cfg, r)
				}
			}()
			return mult.CalibrateGoldenTrim(g.tech, cfg, g.scfg, g.traj, intra, rec, span.ID())
		})
		g.trims[cfg] = trim
	}
	g.mu.Unlock()
	return trim()
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

// EvaluateCell implements Backend. The per-corner discharges — the 16
// trim waveforms of a cold configuration, the 16 codes × 4 bit times of
// the input-space table, and the four bit lines of each of the
// GoldenSigmaSamples mismatch samples of the (15,15) input — fan out
// across up to ev.Workers workers, each with its own integrator scratch
// and — for the Monte-Carlo phase — its own per-sample seeded RNG and cell
// state, and read through the backend's trajectory memo. Workers fill
// fixed slots indexed by code and by sample; the 256 input pairs compose
// from the (code, bit) slots serially in (a, d) order, and the σ reduction
// walks the samples in order. Every memo read equals the fresh transient
// bit for bit, so the result is byte-identical to the serial path at any
// worker count and in any order of cells — the engine's content-addressed
// cache contract.
//
// With ev.Rec set, a cold configuration records a trim span (with
// per-code children) and the input-space and Monte-Carlo phases one span
// each, all under ev.Parent, and the memo's counts are attached to its
// registry.
func (g *Golden) EvaluateCell(ev Eval, job Job) (Metrics, error) {
	cfg, cond := job.Config, job.Cond
	lsb, err := g.trimFor(cfg, ev.Workers, ev.Rec, ev.Parent)
	if err != nil {
		return Metrics{}, err
	}
	gm := &mult.Golden{Tech: g.tech, Cfg: cfg, Cond: cond, Spice: g.scfg, LSBVolt: lsb, Trajectories: g.traj}
	g.traj.Observe(ev.Rec.Metrics())
	m := Metrics{Config: cfg, Cond: cond, LSBVolt: gm.LSBVolt}

	// Input space: the 16×4 distinct (code, bit) discharges fill the
	// matched-cell table, then the 256 pairs compose from it serially in
	// (a, d) order through the shared scaffold.
	var tableArg string
	if ev.Rec != nil {
		tableArg = fmt.Sprintf("%d codes × %d bit times", mult.OperandMax+1, mult.OperandBits)
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

	// Monte-Carlo workers reuse integrator buffers between discharges; the
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
		cells.SampleMismatch(g.tech, stats.NewRNG(goldenSigmaSeed+uint64(s)))
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
//
// Neighbouring codes share a boundary, so each boundary's CDF is computed
// once: code k's upper CDF is carried forward as code k+1's lower CDF, and
// the two tail terms reuse the window's first lower and last upper CDF.
// (k+0.5)·lsb and ((k+1)−0.5)·lsb are the same float64, so every math.Erf
// argument, every term and the order of the sum are those of scoring each
// code on its own — the result is bit for bit the same, and so is every
// cached and persisted Metrics. An empty window (lo > hi: the mean far
// outside the ADC range) keeps its own expression, because there the tail
// boundaries are not boundaries of any summed code.
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
	if lo > hi {
		// Empty window: only the truncated tails contribute.
		if lo > 0 {
			sum += math.Abs(float64(lo-expected)) * cdf((float64(lo)-0.5)*lsb)
		}
		if hi < mult.ADCMax {
			sum += math.Abs(float64(hi-expected)) * (1 - cdf((float64(hi)+0.5)*lsb))
		}
		return sum
	}
	// lower is the CDF at code k's lower boundary; code 0 has none.
	var lower float64
	if lo > 0 {
		lower = cdf((float64(lo) - 0.5) * lsb)
	}
	first := lower
	for k := lo; k <= hi; k++ {
		var upper, p float64
		switch {
		case k == 0:
			upper = cdf((float64(k) + 0.5) * lsb)
			p = upper // everything below the first boundary clamps to 0
		case k == mult.ADCMax:
			p = 1 - lower // the last code; no upper boundary is read after it
		default:
			upper = cdf((float64(k) + 0.5) * lsb)
			p = upper - lower
		}
		sum += math.Abs(float64(k-expected)) * p
		lower = upper
	}
	// Account for truncated tails outside [lo, hi] when they clamp. After
	// the loop, lower holds code hi's upper CDF.
	if lo > 0 {
		sum += math.Abs(float64(lo-expected)) * first
	}
	if hi < mult.ADCMax {
		sum += math.Abs(float64(hi-expected)) * (1 - lower)
	}
	return sum
}
