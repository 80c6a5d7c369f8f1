package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"optima/internal/cli"
	"optima/internal/engine"
	"optima/internal/report"
	"optima/internal/search"
)

// runSearch parses its flags and the axis specs before it opens the
// session, so a bad spec fails before the model loads; it closes the
// session as cli.Run does.
func runSearch(args []string) (err error) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	outDir := fs.String("out", "out", "artifact directory")
	// No -backend: the search screens on behavioral and promotes to golden.
	f := cli.NewFlags(fs, engineFlags&^cli.Backend|cli.Conditions)
	tau0 := fs.String("tau0", search.DefaultTau0Spec, "τ0 axis [ns]: min:max:steps[:log] or comma list")
	vdac0 := fs.String("vdac0", search.DefaultVDAC0Spec, "V_DAC,0 axis [V]: min:max:steps[:log] or comma list")
	vdacfs := fs.String("vdacfs", search.DefaultVDACFSSpec, "V_DAC,FS axis [V]: min:max:steps[:log] or comma list")
	budget := fs.Int("budget", 0, "rung-0 candidate budget; larger spaces are sampled (0 = full space)")
	rungs := fs.Int("rungs", search.DefaultRungs, "screening rungs (successive halving rounds)")
	eta := fs.Float64("eta", search.DefaultEta, "halving ratio between rungs (> 1)")
	finalists := fs.Int("finalists", 0, "cap on corners promoted to the golden fidelity (0 = last rung's survivors)")
	refine := fs.Bool("refine", false, "insert per-axis midpoint candidates around each rung's survivors")
	promote := fs.Bool("promote", true, "re-evaluate finalists on the golden transient backend")
	seed := fs.Uint64("seed", 1, "candidate sampling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	space, err := search.ParseSpaceSpec(*tau0, *vdac0, *vdacfs)
	if err != nil {
		return err
	}

	ctx, err := f.Open()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ctx.Close(); err == nil {
			err = cerr
		}
	}()
	screen, err := ctx.EngineFor(engine.BackendBehavioral)
	if err != nil {
		return err
	}
	opts := search.Options{
		Space:      space,
		Screen:     screen,
		Conditions: ctx.Conditions,
		Budget:     *budget,
		Rungs:      *rungs,
		Eta:        *eta,
		Finalists:  *finalists,
		Refine:     *refine,
		Seed:       *seed,
		Recorder:   ctx.Recorder,
	}
	if *promote {
		if opts.Final, err = ctx.EngineFor(engine.BackendGolden); err != nil {
			return err
		}
	}

	robust := opts.Conditions.Len() > 1
	start := time.Now()
	res, err := search.Run(context.Background(), opts)
	if err != nil {
		return err
	}
	if robust {
		fmt.Printf("searched %d-corner space across %d conditions (%s) in %v\n",
			res.Trace.SpaceSize, opts.Conditions.Len(), res.Trace.Conditions, time.Since(start))
	} else {
		fmt.Printf("searched %d-corner space in %v\n", res.Trace.SpaceSize, time.Since(start))
	}

	rungTbl := report.NewTable("Adaptive search rungs",
		"rung", "fidelity", "candidates", "conds", "evaluated", "cache hits", "store hits", "promoted")
	for _, r := range res.Trace.Rungs {
		fid := r.Fidelity
		if r.Final {
			fid += " (final)"
		}
		rungTbl.AddRow(r.Rung, fid, r.Candidates, r.Conditions, r.Evaluated, r.CacheHits, r.StoreHits, r.Promoted)
	}
	fmt.Print(rungTbl.String())
	exhaustive := res.Trace.SpaceSize * opts.Conditions.Len()
	if exhaustive == 0 {
		exhaustive = res.Trace.SpaceSize
	}
	fmt.Printf("exhaustive golden sweep would evaluate %d corner-conditions; adaptive ran %d golden + %d behavioral evaluations (%.1f%% golden)\n",
		exhaustive, res.Trace.FinalEvaluations(), res.Trace.ScreenEvaluations(),
		100*float64(res.Trace.FinalEvaluations())/float64(exhaustive))

	var frontTbl *report.Table
	if robust {
		frontTbl = report.NewTable("Adaptive-search robust Pareto front (worst case over the condition set; energy ↑, error ↓)",
			"tau0 [ns]", "vdac0 [V]", "vdacfs [V]", "worst eps_mul [LSB]", "worst E_mul [fJ]", "worst cond", "worst FOM")
		for _, m := range res.Front {
			frontTbl.AddRow(m.Config.Tau0*1e9, m.Config.VDAC0, m.Config.VDACFS,
				m.EpsMul, m.EMul*1e15, engine.FormatCondition(m.Cond), m.FOM())
		}
	} else {
		frontTbl = report.NewTable("Adaptive-search Pareto front (energy ↑, error ↓)",
			"tau0 [ns]", "vdac0 [V]", "vdacfs [V]", "eps_mul [LSB]", "E_mul [fJ]", "FOM")
		for _, m := range res.Front {
			frontTbl.AddRow(m.Config.Tau0*1e9, m.Config.VDAC0, m.Config.VDACFS,
				m.EpsMul, m.EMul*1e15, m.FOM())
		}
	}
	fmt.Print(frontTbl.String())

	out, err := report.NewOutput(*outDir)
	if err != nil {
		return err
	}
	if err := out.WriteTable("search_rungs", rungTbl); err != nil {
		return err
	}
	if err := out.WriteTable("search_front", frontTbl); err != nil {
		return err
	}
	if err := writeSearchJSON(filepath.Join(*outDir, "search.json"), res); err != nil {
		return err
	}
	fmt.Printf("wrote %s/search.json\n", *outDir)
	printEngineStats(ctx)
	return nil
}

// writeSearchJSON persists the machine-readable report: the final front,
// the per-rung evaluation trace, and — in robust mode — the finalists'
// cross-condition summaries. The schema (search.JSONReport) is shared with
// the optima-server's search jobs.
func writeSearchJSON(path string, res *search.Result) error {
	data, err := json.MarshalIndent(search.NewJSONReport(res), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
