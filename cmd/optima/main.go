// Command optima is the design-space exploration tool: it calibrates the
// behavioral models against the golden simulator and regenerates the
// paper's circuit-level figures and tables.
//
// Usage:
//
//	optima calibrate [-quick] [-model out.json]
//	optima figures   [-out dir] [-model in.json] [-mc N]
//	optima dse       [-out dir] [-model in.json] [-workers N] [-backend B] [-conditions set] [-cache-dir dir]
//	optima search    [-out dir] [-model in.json] [-workers N] [-conditions set] [-cache-dir dir]
//	                 [-tau0 spec] [-vdac0 spec] [-vdacfs spec] [-budget N]
//	                 [-rungs R] [-eta F] [-finalists N] [-refine] [-promote] [-seed S]
//	optima pvt       [-out dir] [-tau0 ns] [-vdac0 V] [-vdacfs V] [-corners] [-workers N] [-backend B] [-cache-dir dir]
//	optima speedup   [-out dir] [-model in.json] [-mc N]
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
// figures and speedup call the simulator and the multipliers directly and
// build no evaluation engine, so they take none of the engine's flags
// (-workers, -backend, -cache-dir, -slow-eval, -remote).
//
// -cpuprofile and -memprofile (every subcommand but calibrate) write pprof
// profiles of the run: CPU sampling covers the experiment work, the heap
// snapshot is taken as the run finishes. Analyze with `go tool pprof`.
//
// Every artifact is written as .txt/.csv (tables) and .svg (charts) into
// the output directory (default ./out).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"optima/internal/cli"
	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/exp"
	"optima/internal/mult"
	"optima/internal/refdata"
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

// sessionFlags are the shared flags of figures and speedup, which call the
// simulator and the multipliers directly and build no evaluation engine.
const sessionFlags = cli.Model | cli.Profile | cli.LogLevel

// engineFlags are the shared flags of the sweep-running subcommands (dse,
// pvt, all, and search without -backend). Only those that consume a
// condition set (dse, all, search) add cli.Conditions.
const engineFlags = sessionFlags | cli.Workers | cli.Backend | cli.Cache | cli.SlowEval | cli.Remote

func runCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	f := cli.NewFlags(fs, cli.Quick)
	out := fs.String("model", "out/model.json", "output model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := f.SetupLogging(); err != nil {
		return err
	}
	// Here -model names the output, so f.Model is empty and this
	// calibrates; the duration and fit report are its slog line.
	ctx, err := f.Session()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return err
	}
	if err := ctx.Model.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func runFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	mc := fs.Int("mc", 1000, "Fig. 5d Monte-Carlo samples")
	return cli.Run(fs, args, sessionFlags, func(ctx *exp.Context, out *report.Output) error {
		return writeFigures(ctx, out, *mc)
	})
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
	if err := writeCharts(out, []namedChart{
		{"fig4a_discharge_time", f4.TimeChart},
		{"fig4b_discharge_vwl", f4.VWLChart},
	}); err != nil {
		return err
	}

	f5, err := ctx.Fig5(mc)
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 5d: mismatch ±3σ band at 2 ns = ±%.1f mV (paper: ≈ −10…+20 mV)\n", f5.MismatchSpreadMV)
	if err := writeCharts(out, []namedChart{
		{"fig5a_supply", f5.SupplyChart},
		{"fig5b_temp", f5.TempChart},
		{"fig5c_corners", f5.CornerChart},
		{"fig5d_mismatch", f5.MismatchChart},
	}); err != nil {
		return err
	}

	f6, err := ctx.Fig6()
	if err != nil {
		return err
	}
	fmt.Print(f6.RMSTable.String())
	if err := out.WriteTable("fig6_rms", f6.RMSTable); err != nil {
		return err
	}
	return writeCharts(out, []namedChart{
		{"fig6a_supply_model", f6.SupplyChart},
		{"fig6b_temp_model", f6.TempChart},
		{"fig6c_sigma_model", f6.MismatchChart},
		{"fig6d_energy_model", f6.EnergyChart},
	})
}

// namedChart is one chart artifact and its file name.
type namedChart struct {
	name  string
	chart *report.Chart
}

// writeCharts writes the charts in slice order, so the `wrote` lines, and
// which failed write is reported, are the same on every run.
func writeCharts(out *report.Output, charts []namedChart) error {
	for _, c := range charts {
		if err := out.WriteChart(c.name, c.chart); err != nil {
			return err
		}
	}
	return nil
}

func runDSE(args []string) error {
	fs := flag.NewFlagSet("dse", flag.ExitOnError)
	return cli.Run(fs, args, engineFlags|cli.Conditions, func(ctx *exp.Context, out *report.Output) error {
		if err := writeDSE(ctx, out); err != nil {
			return err
		}
		printEngineStats(ctx)
		return nil
	})
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
	if err := writeCharts(out, []namedChart{
		{"fig7_left_error", f7.LeftError},
		{"fig7_left_energy", f7.LeftEnergy},
		{"fig7_right_error", f7.RightError},
		{"fig7_right_energy", f7.RightEnergy},
	}); err != nil {
		return err
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
	if err := writeCharts(out, []namedChart{
		{"fig8_error_by_result", f8.ErrorByResult},
		{"fig8_sigma_by_result", f8.SigmaByResult},
		{"fig8_error_vs_vdd", f8.ErrorVsVDD},
		{"fig8_error_vs_temp", f8.ErrorVsTemp},
	}); err != nil {
		return err
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
	tau0 := fs.Float64("tau0", 0.16, "discharge time of the LSB bit line [ns]")
	vdac0 := fs.Float64("vdac0", 0.3, "DAC output for code 0 [V]")
	vdacfs := fs.Float64("vdacfs", 1.0, "DAC full-scale output [V]")
	corners := fs.Bool("corners", true, "run the golden process-corner check (slow)")
	return cli.Run(fs, args, engineFlags, func(ctx *exp.Context, out *report.Output) error {
		return writePVT(ctx, out, mult.Config{Tau0: *tau0 * 1e-9, VDAC0: *vdac0, VDACFS: *vdacfs}, *corners)
	})
}

func writePVT(ctx *exp.Context, out *report.Output, cfg mult.Config, corners bool) error {
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
	if corners {
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
	mc := fs.Int("mc", 200, "Monte-Carlo samples for the MC speed-up")
	return cli.Run(fs, args, sessionFlags, func(ctx *exp.Context, out *report.Output) error {
		return writeSpeedup(ctx, out, *mc)
	})
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
	mc := fs.Int("mc", 1000, "Fig. 5d Monte-Carlo samples")
	return cli.Run(fs, args, engineFlags|cli.Conditions, func(ctx *exp.Context, out *report.Output) error {
		modelOut := filepath.Join(out.Dir, "model.json")
		if err := ctx.Model.Save(modelOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", modelOut)
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
	})
}

// printEngineStats prints the evaluation-cache accounting, the persistent
// store's and the remote fleet's when attached, and the telemetry table.
func printEngineStats(ctx *exp.Context) {
	fmt.Printf("engine [%s]: %v\n", ctx.Engine().Backend().Name(), ctx.Engine().Stats())
	if st := ctx.Store(); st != nil {
		fmt.Printf("result store [%s]: %v\n", st.Dir(), st.Stats())
	}
	if ctx.Fleet != nil {
		fmt.Printf("remote fleet: %v\n", ctx.Fleet.Stats())
	}
	cli.PrintTelemetry(ctx.Recorder)
}
