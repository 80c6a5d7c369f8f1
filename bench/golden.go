package main

import (
	"fmt"
	"math"
	"runtime"

	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/exp"
	"optima/internal/mult"
	"optima/internal/refdata"
)

// fomConfig is the paper's fom corner, the configuration its speed-up
// experiment iterates (root bench_test.go uses the same).
var fomConfig = mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}

// goldenInst runs the cold golden reproduction: each op is a fresh
// experiment context whose caches start empty.
type goldenInst struct {
	e     *env
	first string           // digest of the first op; every op must match it
	sweep []engine.Metrics // the first op's golden cells at the nominal condition
	tot   engine.Stats
}

func setupGolden(e *env) (instance, error) {
	if err := e.calibrate(); err != nil {
		return nil, err
	}
	return &goldenInst{e: e}, nil
}

// op runs Selection then Fig8 on the golden backend — the 93 cells `optima
// dse -backend golden` evaluates — or one golden cell in a smoke run.
func (g *goldenInst) op(_, _ int) error {
	ctx := exp.NewContextWithModel(g.e.model, g.e.sz.calib.Tech)
	ctx.Spice = g.e.sz.calib.Spice
	ctx.Backend = engine.BackendGolden
	ctx.Workers = g.e.workers
	ctx.Recorder = g.e.rec
	d := newDigest()
	var sweep []engine.Metrics
	if g.e.sz.smoke {
		var err error
		if sweep, err = ctx.Engine().EvaluateBatch(engine.Jobs([]mult.Config{fomConfig}, device.Nominal())); err != nil {
			return err
		}
		d.metrics(sweep...)
	} else {
		c := g.e.begin("exp.selection")
		_, err := ctx.Selection()
		c.end()
		if err != nil {
			return err
		}
		c = g.e.begin("exp.fig8")
		f8, err := ctx.Fig8()
		c.end()
		if err != nil {
			return err
		}
		if sweep, err = ctx.Sweep(); err != nil {
			return err
		}
		d.metrics(sweep...)
		d.charts(f8.ErrorByResult, f8.SigmaByResult, f8.ErrorVsVDD, f8.ErrorVsTemp)
	}
	g.tot = addStats(g.tot, ctx.Engine().Stats())
	if err := ctx.Close(); err != nil {
		return err
	}
	if g.first == "" {
		g.first, g.sweep = d.sum(), sweep
		return nil
	}
	return sameDigest("golden reproduction", g.first, d.sum())
}

func (g *goldenInst) cells() uint64 { return resolved(g.tot) }

func (g *goldenInst) counts(l *layers, ops int) { l.engineCounts(g.tot, ops) }

func (g *goldenInst) probe() probeInputs { return probeInputs{cfg: fomConfig} }

func (g *goldenInst) check() (string, error) { return g.first, nil }

func (g *goldenInst) close() error { return nil }

// claims are the paper's headline figures measured on a setup's model: the
// behavioral-vs-golden speed-up per multiply, and the model's error.
type claims struct {
	reps                         int
	goldenMulUS, behavioralMulNS float64
	inputSpaceX, monteCarloX     float64
	transientsPerMul             float64
	rmsMV                        float64
	errLSB                       float64
}

// goldenSweeper is implemented by instances that already evaluated golden
// cells at the nominal condition.
type goldenSweeper interface{ goldenSweep() []engine.Metrics }

func (g *goldenInst) goldenSweep() []engine.Metrics { return g.sweep }

// paperClaims runs the speed-up experiment single-threaded (reps of
// SpeedupInputSpace and SpeedupMonteCarlo on the fom corner) and, in an
// untraced setup, the model error at that corner.
func paperClaims(e *env, inst instance) (claims, error) {
	ctx := exp.NewContextWithModel(e.model, e.sz.calib.Tech)
	ctx.Spice = e.sz.calib.Spice
	cl := claims{reps: e.sz.speedupReps, rmsMV: e.model.Report.VDDRMSVolts * 1e3}
	// Collect the timed phase's garbage first: a collection running during
	// the experiment lands in its sub-millisecond behavioral windows.
	runtime.GC()
	var gIS, bIS, gMC, bMC []float64
	var transients, golden int
	for i := 0; i < e.sz.speedupReps; i++ {
		c := e.begin("exp.speedup")
		is, err := ctx.SpeedupInputSpace(fomConfig)
		if err != nil {
			return cl, fmt.Errorf("speed-up: %w", err)
		}
		mc, err := ctx.SpeedupMonteCarlo(fomConfig, e.sz.mcSamples)
		c.end()
		if err != nil {
			return cl, fmt.Errorf("speed-up: %w", err)
		}
		ops := float64(is.Operations)
		gIS, bIS = append(gIS, is.GoldenTime.Seconds()/ops), append(bIS, is.BehavioralTime.Seconds()/ops)
		gMC, bMC = append(gMC, mc.GoldenTime.Seconds()), append(bMC, mc.BehavioralTime.Seconds())
		transients += is.GoldenTransients + mc.GoldenTransients
		golden += is.Operations + mc.Operations
	}
	cl.goldenMulUS, cl.behavioralMulNS = median(gIS)*1e6, median(bIS)*1e9
	cl.inputSpaceX, cl.monteCarloX = median(gIS)/median(bIS), median(gMC)/median(bMC)
	cl.transientsPerMul = float64(transients) / float64(max(golden, 1))
	if e.rec != nil {
		return cl, nil
	}
	var swept []engine.Metrics
	if gs, ok := inst.(goldenSweeper); ok {
		swept = gs.goldenSweep()
	}
	var err error
	cl.errLSB, err = modelError(e, swept)
	return cl, err
}

// modelError is |ϵ_mul behavioral − ϵ_mul golden| at the fom corner, the
// configuration the speed-up experiment runs, at the nominal condition:
// the simulator's error against its transistor-level reference, beside its
// speed-up. The golden cell is taken from swept when a workload already
// evaluated it.
func modelError(e *env, swept []engine.Metrics) (float64, error) {
	job := engine.Job{Config: fomConfig, Cond: device.Nominal()}
	beh, err := engine.Behavioral{Model: e.model}.Evaluate(job.Config, job.Cond)
	if err != nil {
		return 0, fmt.Errorf("model error: %w", err)
	}
	for _, m := range swept {
		if m.Config == job.Config && m.Cond == job.Cond {
			return math.Abs(beh.EpsMul - m.EpsMul), nil
		}
	}
	golden, err := engine.NewGoldenBackend(e.sz.calib.Tech, e.sz.calib.Spice).EvaluateBudget(job.Config, job.Cond, e.workers)
	if err != nil {
		return 0, fmt.Errorf("model error: %w", err)
	}
	return math.Abs(beh.EpsMul - golden.EpsMul), nil
}

// checkFloors fails a speed-up below the paper's figure. Smoke sizes time
// too little work to hold the floor.
func (c claims) checkFloors(smoke bool) error {
	if smoke {
		return nil
	}
	if c.inputSpaceX < refdata.SpeedupInputSpace || c.monteCarloX < refdata.SpeedupMonteCarlo {
		return fmt.Errorf("speed-up %.1fx (input space) / %.1fx (Monte Carlo) below the paper's %.0fx / %.1fx",
			c.inputSpaceX, c.monteCarloX, refdata.SpeedupInputSpace, refdata.SpeedupMonteCarlo)
	}
	return nil
}
