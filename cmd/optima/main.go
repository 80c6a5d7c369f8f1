// Command optima is the design-space exploration tool: it calibrates the
// behavioral models against the golden simulator and regenerates the
// paper's circuit-level figures and tables.
//
// Usage:
//
//	optima calibrate [-quick] [-model out.json]
//	optima figures   [-out dir] [-model in.json] [-mc N] [-workers N] [-backend B] [-cache-dir dir]
//	optima dse       [-out dir] [-model in.json] [-workers N] [-backend B] [-conditions set] [-cache-dir dir]
//	optima search    [-out dir] [-model in.json] [-workers N] [-conditions set] [-cache-dir dir]
//	                 [-tau0 spec] [-vdac0 spec] [-vdacfs spec] [-budget N]
//	                 [-rungs R] [-eta F] [-finalists N] [-refine] [-promote] [-seed S]
//	optima pvt       [-out dir] [-tau0 ns] [-vdac0 V] [-vdacfs V] [-corners] [-workers N] [-backend B] [-cache-dir dir]
//	optima speedup   [-model in.json] [-mc N]
//	optima all       [-out dir] [-model in.json] [-mc N] [-workers N] [-backend B] [-conditions set] [-cache-dir dir]
//
// search explores design spaces far larger than the paper's 48 corners with
// the adaptive multi-fidelity driver (internal/search): every rung screens
// candidates on the behavioral backend, successive halving keeps the
// (ϵ_mul, E_mul) Pareto-rank + crowding survivors, and -promote (default
// on) re-evaluates only the finalists on the golden transient backend. An
// axis spec is either "min:max:steps" / "min:max:steps:log" (τ0 in ns,
// voltages in V) or an explicit comma list like "0.16,0.20,0.24". With
// -cache-dir, refinement sweeps across sessions re-evaluate nothing.
//
// -conditions moves dse and search onto the cross-condition evaluation
// plane. The spec is a comma-separated list of CORNER@<vdd>V@<temp>C
// entries, e.g. TT@1.0V@27C,SS@0.90V@60C,FF@1.10V@0C. With two or more
// conditions, dse appends a robust ranking (worst-case ϵ_mul/E_mul per
// corner with the arg-worst condition, plus a nominal-vs-robust winner
// comparison), and search runs in robust mode: every rung screens its
// candidates at every condition as one engine matrix batch, survivors are
// kept by Pareto rank on the worst case over the set, and finalists are
// promoted to golden at every condition. Results stay byte-identical at
// any -workers, and each (config, condition) cell keeps its own cache key,
// so a second run against the same -cache-dir evaluates nothing.
//
// -workers bounds the evaluation engine's TOTAL worker budget (0 = all
// CPUs): the engine splits it between job-level fan-out and intra-job
// parallelism (the golden backend fans each cold corner's 176 transients
// out across its share), so job × intra-job workers never exceed the
// budget.
// -backend selects behavioral (calibrated models, fast) or golden
// (transistor-level transients — the reference, orders of magnitude
// slower). Sweep output is identical for any worker count.
//
// -cache-dir roots the persistent content-addressed result store
// (internal/store): evaluation results are keyed on (backend, config,
// condition) plus the calibration fingerprint and shared across runs, so
// `optima all -cache-dir out/cache` after `optima dse -cache-dir out/cache`
// re-evaluates nothing. Use the same -model (or recalibrate identically)
// across runs — a different calibration changes the fingerprint and starts
// a fresh result set. -cache-max-bytes bounds the store's size: segments
// over the budget are evicted least-recently-written first at open.
// -cache-max-age bounds its staleness the same way: segments older than
// the bound (e.g. 720h) are evicted at open.
//
// -cpuprofile and -memprofile (every sweep-running subcommand) write pprof
// profiles of the run: CPU sampling covers the experiment work, the heap
// snapshot is taken as the run finishes. Analyze with `go tool pprof`.
//
// Every artifact is written as .txt/.csv (tables) and .svg (charts) into
// the output directory (default ./out).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"optima/internal/core"
	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/exp"
	"optima/internal/mult"
	"optima/internal/obs"
	"optima/internal/refdata"
	"optima/internal/remote"
	"optima/internal/report"
	"optima/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "calibrate":
		err = runCalibrate(args)
	case "figures":
		err = runFigures(args)
	case "dse":
		err = runDSE(args)
	case "search":
		err = runSearch(args)
	case "pvt":
		err = runPVT(args)
	case "speedup":
		err = runSpeedup(args)
	case "all":
		err = runAll(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "optima:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: optima <command> [flags]

commands:
  calibrate   fit the behavioral models against golden simulation
  figures     regenerate Fig. 1, 4, 5 and 6 artifacts
  dse         run the 48-corner exploration (Fig. 7, Table I, Fig. 8)
  search      adaptive multi-fidelity exploration of large design spaces
              (successive halving; behavioral screen, golden finalists)
  pvt         PVT robustness of one configuration (incl. golden corner check)
  speedup     measure the behavioral-vs-golden speed-up headlines
  all         everything above into one output directory`)
}

// engineOpts carries the evaluation-engine flags shared by the
// sweep-running subcommands. The zero value means defaults everywhere
// (behavioral backend, all CPUs, no persistent store, nominal condition).
type engineOpts struct {
	workers    *int
	backend    *string
	cacheDir   *string
	cacheMax   *int64
	cacheAge   *time.Duration
	conditions *string
	cpuProfile *string
	memProfile *string
	traceOut   *string
	logLevel   *string
	slowEval   *time.Duration
	remoteAddr *string
}

// engineFlags registers the shared evaluation-engine flags. -conditions is
// NOT registered here: only the subcommands that consume the condition set
// (dse, all, search) add it via conditionsFlag, so the flag can never be a
// silent no-op on figures/pvt.
func engineFlags(fs *flag.FlagSet) engineOpts {
	eo := engineOpts{
		workers: fs.Int("workers", 0, "total evaluation worker budget, split between job-level and intra-job parallelism (0 = all CPUs)"),
		backend: fs.String("backend", engine.BackendBehavioral,
			"evaluation backend: behavioral (fast models) or golden (transient simulation; orders of magnitude slower)"),
	}
	eo.cacheFlags(fs)
	eo.profileFlags(fs)
	eo.remoteFlag(fs)
	return eo
}

// remoteFlag registers the distributed-evaluation coordinator flag (for
// subcommands that register their engine flags piecemeal, like search).
func (eo *engineOpts) remoteFlag(fs *flag.FlagSet) {
	eo.remoteAddr = fs.String("remote", "",
		"listen on this address (e.g. :9777) for optima-worker processes and distribute evaluations across them; with no connected workers evaluation stays local")
}

// cacheFlags registers only the persistent-store flags (for subcommands
// that fix the backend themselves, like search).
func (eo *engineOpts) cacheFlags(fs *flag.FlagSet) {
	eo.cacheDir = fs.String("cache-dir", "",
		"persist evaluation results in this directory (shared across runs; keyed by the calibration fingerprint)")
	eo.cacheMax = fs.Int64("cache-max-bytes", 0,
		"evict least-recently-written cache segments beyond this size when the store opens (0 = unlimited)")
	eo.cacheAge = fs.Duration("cache-max-age", 0,
		"evict cache segments older than this when the store opens (e.g. 720h; 0 = unlimited)")
}

// profileFlags registers the pprof and observability flags (for
// subcommands that register their engine flags piecemeal, like search and
// speedup).
func (eo *engineOpts) profileFlags(fs *flag.FlagSet) {
	eo.cpuProfile = fs.String("cpuprofile", "",
		"write a pprof CPU profile of the run to this file (analyze with `go tool pprof`)")
	eo.memProfile = fs.String("memprofile", "",
		"write a pprof heap profile to this file when the run finishes")
	eo.traceOut = fs.String("trace-out", "",
		"write a Chrome trace-format JSON timeline of the run to this file (open in Perfetto or chrome://tracing)")
	eo.logLevel = fs.String("log-level", "info",
		"structured log level: debug, info, warn or error")
	eo.slowEval = fs.Duration("slow-eval", 0,
		"log a warning for any single backend evaluation slower than this (e.g. 2s; 0 = off)")
}

// setupLogging installs the process-wide structured logger at the
// -log-level threshold.
func setupLogging(level string) error {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	return nil
}

// conditionsFlag registers the operating-condition-set flag.
func (eo *engineOpts) conditionsFlag(fs *flag.FlagSet) {
	eo.conditions = fs.String("conditions", "",
		"operating condition set for cross-condition (robust) analyses: comma-separated CORNER@<vdd>V@<temp>C entries, e.g. TT@1.0V@27C,SS@0.90V@60C,FF@1.10V@0C (empty = nominal only)")
}

func (eo engineOpts) backendName() string {
	if eo.backend == nil {
		return engine.BackendBehavioral
	}
	return *eo.backend
}

// conditionSet parses the -conditions spec; empty means the empty set
// (nominal only, via exp.Context.ConditionSet).
func (eo engineOpts) conditionSet() (engine.ConditionSet, error) {
	if eo.conditions == nil || *eo.conditions == "" {
		return engine.ConditionSet{}, nil
	}
	return engine.ParseConditionSet(*eo.conditions)
}

// makeContext builds an experiment context, loading a model when given.
// The flag values configure the context's evaluation engine, persistent
// store and condition set; flag errors surface before the expensive
// calibration. Callers should defer ctx.Close() so the persistent store
// flushes.
func makeContext(modelPath string, quick bool, eo engineOpts) (*exp.Context, error) {
	if eo.logLevel != nil {
		if err := setupLogging(*eo.logLevel); err != nil {
			return nil, err
		}
	}
	if err := engine.ValidateBackendName(eo.backendName()); err != nil {
		return nil, err
	}
	conds, err := eo.conditionSet()
	if err != nil {
		return nil, err
	}
	calib := core.DefaultCalibration()
	if quick {
		calib = core.QuickCalibration()
	}
	var ctx *exp.Context
	if modelPath != "" {
		if m, err := core.LoadModel(modelPath); err == nil {
			fmt.Printf("loaded model from %s\n", modelPath)
			ctx = exp.NewContextWithModel(m, calib.Tech)
		} else {
			fmt.Printf("model %s not found; calibrating\n", modelPath)
		}
	}
	if ctx == nil {
		start := time.Now()
		var err error
		ctx, err = exp.NewContext(calib)
		if err != nil {
			return nil, err
		}
		fmt.Printf("calibrated in %v: %v\n", time.Since(start), ctx.Model.Report)
	}
	ctx.Backend = eo.backendName()
	ctx.Conditions = conds
	if eo.workers != nil {
		ctx.Workers = *eo.workers
	}
	if eo.cacheDir != nil {
		ctx.CacheDir = *eo.cacheDir
	}
	if eo.cacheMax != nil {
		ctx.CacheMaxBytes = *eo.cacheMax
	}
	if eo.cacheAge != nil {
		ctx.CacheMaxAge = *eo.cacheAge
	}
	if eo.cpuProfile != nil {
		ctx.CPUProfile = *eo.cpuProfile
	}
	if eo.memProfile != nil {
		ctx.MemProfile = *eo.memProfile
	}
	if eo.traceOut != nil {
		ctx.TraceOut = *eo.traceOut
	}
	// Every run records telemetry: the engine and store register their
	// counters and spans against the recorder, printEngineStats renders
	// the end-of-run summary, and -trace-out exports the span timeline.
	// Timing never feeds results, so artifacts stay byte-identical.
	var slowEval time.Duration
	if eo.slowEval != nil {
		slowEval = *eo.slowEval
	}
	ctx.Recorder = obs.NewRecorder(obs.RecorderOptions{
		SlowEval: slowEval,
		Logger:   slog.Default(),
	})
	if eo.remoteAddr != nil && *eo.remoteAddr != "" {
		fleet, err := remote.Listen(*eo.remoteAddr, remote.Options{
			Fingerprint: ctx.Fingerprint(),
			Recorder:    ctx.Recorder,
			Logger:      slog.Default(),
		})
		if err != nil {
			return nil, fmt.Errorf("-remote: %w", err)
		}
		ctx.Fleet = fleet
		fmt.Printf("remote fleet listening on %s (connect workers: optima-worker -connect <host>%s)\n",
			fleet.Addr(), *eo.remoteAddr)
	}
	// The CPU profile runs until ctx.Close (which also snapshots the heap),
	// so it covers exactly the experiment work between here and the caller's
	// deferred Close.
	if err := ctx.StartProfiling(); err != nil {
		return nil, err
	}
	return ctx, nil
}

func runCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	quick := fs.Bool("quick", false, "use the reduced calibration grids")
	out := fs.String("model", "out/model.json", "output model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	calib := core.DefaultCalibration()
	if *quick {
		calib = core.QuickCalibration()
	}
	start := time.Now()
	model, err := core.Calibrate(calib)
	if err != nil {
		return err
	}
	fmt.Printf("calibrated in %v\n", time.Since(start))
	fmt.Println("fit report:", model.Report)
	if err := os.MkdirAll(dirOf(*out), 0o755); err != nil {
		return err
	}
	if err := model.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

func runFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	outDir := fs.String("out", "out", "artifact directory")
	modelPath := fs.String("model", "", "load a calibrated model instead of recalibrating")
	mc := fs.Int("mc", 1000, "Fig. 5d Monte-Carlo samples")
	eo := engineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, err := makeContext(*modelPath, false, eo)
	if err != nil {
		return err
	}
	defer ctx.Close()
	out, err := report.NewOutput(*outDir)
	if err != nil {
		return err
	}
	return writeFigures(ctx, out, *mc)
}

func writeFigures(ctx *exp.Context, out *report.Output, mc int) error {
	t1, c1 := exp.Fig1()
	fmt.Print(t1.String())
	if err := out.WriteTable("fig1_design_space", t1); err != nil {
		return err
	}
	if err := out.WriteChart("fig1_design_space", c1); err != nil {
		return err
	}

	f4, err := ctx.Fig4()
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 4: '0'-code discharge after 2 ns = %.2f mV (Section III-1 asymmetry)\n", f4.SubVtDischarge*1e3)
	if err := out.WriteChart("fig4a_discharge_time", f4.TimeChart); err != nil {
		return err
	}
	if err := out.WriteChart("fig4b_discharge_vwl", f4.VWLChart); err != nil {
		return err
	}

	f5, err := ctx.Fig5(mc)
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 5d: mismatch ±3σ band at 2 ns = ±%.1f mV (paper: ≈ −10…+20 mV)\n", f5.MismatchSpreadMV)
	for name, chart := range map[string]*report.Chart{
		"fig5a_supply":   f5.SupplyChart,
		"fig5b_temp":     f5.TempChart,
		"fig5c_corners":  f5.CornerChart,
		"fig5d_mismatch": f5.MismatchChart,
	} {
		if err := out.WriteChart(name, chart); err != nil {
			return err
		}
	}

	f6, err := ctx.Fig6()
	if err != nil {
		return err
	}
	fmt.Print(f6.RMSTable.String())
	if err := out.WriteTable("fig6_rms", f6.RMSTable); err != nil {
		return err
	}
	for name, chart := range map[string]*report.Chart{
		"fig6a_supply_model": f6.SupplyChart,
		"fig6b_temp_model":   f6.TempChart,
		"fig6c_sigma_model":  f6.MismatchChart,
		"fig6d_energy_model": f6.EnergyChart,
	} {
		if err := out.WriteChart(name, chart); err != nil {
			return err
		}
	}
	return nil
}

func runDSE(args []string) error {
	fs := flag.NewFlagSet("dse", flag.ExitOnError)
	outDir := fs.String("out", "out", "artifact directory")
	modelPath := fs.String("model", "", "load a calibrated model instead of recalibrating")
	eo := engineFlags(fs)
	eo.conditionsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, err := makeContext(*modelPath, false, eo)
	if err != nil {
		return err
	}
	defer ctx.Close()
	out, err := report.NewOutput(*outDir)
	if err != nil {
		return err
	}
	if err := writeDSE(ctx, out); err != nil {
		return err
	}
	printEngineStats(ctx)
	return nil
}

func writeDSE(ctx *exp.Context, out *report.Output) error {
	start := time.Now()
	f7, err := ctx.Fig7()
	if err != nil {
		return err
	}
	fmt.Printf("48-corner sweep in %v\n", time.Since(start))
	if err := out.WriteTable("fig7_corners", f7.CornersTable); err != nil {
		return err
	}
	for name, chart := range map[string]*report.Chart{
		"fig7_left_error":   f7.LeftError,
		"fig7_left_energy":  f7.LeftEnergy,
		"fig7_right_error":  f7.RightError,
		"fig7_right_energy": f7.RightEnergy,
	} {
		if err := out.WriteChart(name, chart); err != nil {
			return err
		}
	}

	t1, err := ctx.Table1()
	if err != nil {
		return err
	}
	fmt.Print(t1.Table.String())
	fmt.Printf("energy per op incl. write at fom corner: %.2f pJ (paper: %.2f pJ)\n",
		t1.EnergyPerOpPJ, refdata.EnergyPerOpPJ)
	fmt.Printf("worst-case analog σ among corners: %.2f mV (paper: %.2f mV)\n",
		t1.WorstSigmaMV, refdata.WorstCaseSigmaMV)
	if err := out.WriteTable("table1_corners", t1.Table); err != nil {
		return err
	}

	f8, err := ctx.Fig8()
	if err != nil {
		return err
	}
	for name, chart := range map[string]*report.Chart{
		"fig8_error_by_result": f8.ErrorByResult,
		"fig8_sigma_by_result": f8.SigmaByResult,
		"fig8_error_vs_vdd":    f8.ErrorVsVDD,
		"fig8_error_vs_temp":   f8.ErrorVsTemp,
	} {
		if err := out.WriteChart(name, chart); err != nil {
			return err
		}
	}
	return writeRobustDSE(ctx, out)
}

// writeRobustDSE reruns the grid across the session's condition set and
// ranks corners by worst-case excursion — the cross-condition extension of
// Table I (Fig. 8's point made quantitative: the nominal winner is not
// always the robust winner). Skipped when no -conditions set was given; a
// single-condition set is announced as skipped rather than silently
// ignored (a worst case needs at least two conditions to differ from the
// nominal ranking).
func writeRobustDSE(ctx *exp.Context, out *report.Output) error {
	conds := ctx.Conditions
	if conds.Len() == 0 {
		return nil
	}
	if conds.Len() == 1 {
		fmt.Printf("robust ranking skipped: -conditions names a single condition (%s); give two or more to rank by worst-case excursion\n", conds)
		return nil
	}
	start := time.Now()
	rms, err := dse.RobustSweep(ctx.Engine(), dse.DefaultGrid(), conds)
	if err != nil {
		return err
	}
	fmt.Printf("robust sweep over %d conditions (%s) in %v\n", conds.Len(), conds, time.Since(start))

	tbl := report.NewTable("Robust DSE — worst case over "+conds.String(),
		"τ0 [ns]", "V_DAC,0 [V]", "V_DAC,FS [V]",
		"worst ϵ_mul [LSB]", "worst cond", "worst E_mul [fJ]",
		"mean ϵ [LSB]", "spread ϵ [LSB]", "worst FOM")
	for _, r := range rms {
		tbl.AddRow(r.Config.Tau0*1e9, r.Config.VDAC0, r.Config.VDACFS,
			r.WorstEps, engine.FormatCondition(r.WorstEpsCond), r.WorstEMul*1e15,
			r.MeanEps, r.SpreadEps, r.WorstFOM())
	}
	if err := out.WriteTable("dse_robust", tbl); err != nil {
		return err
	}

	// Nominal-vs-robust winner comparison: the corner Eq. 9 picks at the
	// nominal condition versus the one it picks on worst-case metrics.
	sel, err := ctx.Selection()
	if err != nil {
		return err
	}
	robustBest := rms[0]
	for _, r := range rms[1:] {
		if r.WorstFOM() > robustBest.WorstFOM() {
			robustBest = r
		}
	}
	fmt.Printf("nominal fom winner:  %v (FOM %.3f)\n", sel.FOM.Config, sel.FOM.FOM())
	fmt.Printf("robust fom winner:   %v (worst-case FOM %.3f, worst ϵ at %s)\n",
		robustBest.Config, robustBest.WorstFOM(), engine.FormatCondition(robustBest.WorstEpsCond))
	if robustBest.Config == sel.FOM.Config {
		fmt.Println("the nominal winner is also the robust winner under this condition set")
	} else {
		fmt.Println("the nominal winner is NOT the robust winner — rank by worst-case PVT excursion before committing a corner")
	}
	return nil
}

func runPVT(args []string) error {
	fs := flag.NewFlagSet("pvt", flag.ExitOnError)
	outDir := fs.String("out", "out", "artifact directory")
	modelPath := fs.String("model", "", "load a calibrated model instead of recalibrating")
	tau0 := fs.Float64("tau0", 0.16, "discharge time of the LSB bit line [ns]")
	vdac0 := fs.Float64("vdac0", 0.3, "DAC output for code 0 [V]")
	vdacfs := fs.Float64("vdacfs", 1.0, "DAC full-scale output [V]")
	corners := fs.Bool("corners", true, "run the golden process-corner check (slow)")
	eo := engineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, err := makeContext(*modelPath, false, eo)
	if err != nil {
		return err
	}
	defer ctx.Close()
	out, err := report.NewOutput(*outDir)
	if err != nil {
		return err
	}
	cfg := mult.Config{Tau0: *tau0 * 1e-9, VDAC0: *vdac0, VDACFS: *vdacfs}
	fmt.Printf("configuration: %v\n", cfg)

	vddSweep, err := dse.SweepVDD(ctx.Engine(), cfg, stats.Linspace(0.90, 1.10, 9))
	if err != nil {
		return err
	}
	tempSweep, err := dse.SweepTemp(ctx.Engine(), cfg, stats.Linspace(0, 60, 7))
	if err != nil {
		return err
	}
	tbl := report.NewTable("PVT robustness of "+cfg.String(), "variable", "value", "eps_mul [LSB]", "E_mul [fJ]")
	for i := range vddSweep.X {
		tbl.AddRow("VDD [V]", vddSweep.X[i], vddSweep.AvgError[i], vddSweep.AvgEnergy[i]*1e15)
	}
	for i := range tempSweep.X {
		tbl.AddRow("T [degC]", tempSweep.X[i], tempSweep.AvgError[i], tempSweep.AvgEnergy[i]*1e15)
	}
	if *corners {
		check, err := dse.GoldenCornerCheck(ctx.Tech, cfg, ctx.Spice)
		if err != nil {
			return err
		}
		for i, corner := range check.Corners {
			tbl.AddRow("corner (golden)", corner.String(), check.AvgError[i], "-")
		}
		fmt.Printf("golden corner check: %d transients\n", check.Transients)
	}
	fmt.Print(tbl.String())
	return out.WriteTable("pvt_robustness", tbl)
}

func runSpeedup(args []string) error {
	fs := flag.NewFlagSet("speedup", flag.ExitOnError)
	modelPath := fs.String("model", "", "load a calibrated model instead of recalibrating")
	mc := fs.Int("mc", 200, "Monte-Carlo samples for the MC speed-up")
	outDir := fs.String("out", "out", "artifact directory")
	var eo engineOpts
	eo.profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, err := makeContext(*modelPath, false, eo)
	if err != nil {
		return err
	}
	defer ctx.Close()
	out, err := report.NewOutput(*outDir)
	if err != nil {
		return err
	}
	return writeSpeedup(ctx, out, *mc)
}

func writeSpeedup(ctx *exp.Context, out *report.Output, mc int) error {
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}
	is, err := ctx.SpeedupInputSpace(cfg)
	if err != nil {
		return err
	}
	mcRes, err := ctx.SpeedupMonteCarlo(cfg, mc)
	if err != nil {
		return err
	}
	tbl := exp.SpeedupTable(is, mcRes)
	fmt.Print(tbl.String())
	return out.WriteTable("speedup", tbl)
}

func runAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	outDir := fs.String("out", "out", "artifact directory")
	mc := fs.Int("mc", 1000, "Fig. 5d Monte-Carlo samples")
	modelPath := fs.String("model", "", "load a calibrated model instead of recalibrating")
	eo := engineFlags(fs)
	eo.conditionsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, err := makeContext(*modelPath, false, eo)
	if err != nil {
		return err
	}
	defer ctx.Close()
	out, err := report.NewOutput(*outDir)
	if err != nil {
		return err
	}
	if err := ctx.Model.Save(*outDir + "/model.json"); err != nil {
		return err
	}
	fmt.Printf("wrote %s/model.json\n", *outDir)
	if err := writeFigures(ctx, out, *mc); err != nil {
		return err
	}
	if err := writeDSE(ctx, out); err != nil {
		return err
	}
	if err := writeSpeedup(ctx, out, 200); err != nil {
		return err
	}
	printEngineStats(ctx)
	return nil
}

// printEngineStats logs the evaluation-cache accounting, including the
// persistent store's contents when one is attached, and the run's
// telemetry summary (every non-zero metric the recorder accumulated).
func printEngineStats(ctx *exp.Context) {
	fmt.Printf("engine [%s]: %v\n", ctx.Engine().Backend().Name(), ctx.Engine().Stats())
	if st := ctx.Store(); st != nil {
		fmt.Printf("result store [%s]: %v\n", st.Dir(), st.Stats())
	}
	if ctx.Fleet != nil {
		fmt.Printf("remote fleet: %v\n", ctx.Fleet.Stats())
	}
	printTelemetry(ctx.Recorder)
}

// printTelemetry renders the recorder's non-zero metrics as the
// end-of-run summary table.
func printTelemetry(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	samples := rec.Metrics().Samples()
	if len(samples) == 0 {
		return
	}
	fmt.Println("telemetry:")
	for _, s := range samples {
		fmt.Printf("  %-55s %g\n", s.Name, s.Value)
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Printf("  (span ring overflowed: %d oldest spans overwritten)\n", d)
	}
}
