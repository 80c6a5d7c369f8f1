// Command optima-dnn runs the paper's application analysis (Section VI):
// it pretrains the scaled VGG/ResNet zoo on the SynthImageNet substitute,
// quantizes the networks to INT4 with retraining, injects the fom / power /
// variation in-SRAM multiplier corners into every multiplication, transfer-
// learns to the SynthCIFAR substitute, and prints Tables II and III with
// the paper's numbers interleaved.
//
// Usage:
//
//	optima-dnn [-out dir] [-bench] [-noisy] [-model in.json] [-workers N] [-backend B] [-cache-dir dir]
//	           [-cpuprofile f] [-memprofile f]
//
// -bench runs the reduced protocol used by the benchmark harness; -noisy
// samples per-operation mismatch in the multiplier LUT (extension — the
// tables' protocol uses the deterministic calibrated transfer). -workers
// bounds the total evaluation/training worker budget — the engine splits
// it between job-level fan-out and intra-job parallelism (0 = all CPUs);
// -backend
// selects the corner-selection backend (behavioral or golden); -cache-dir
// persists corner-selection results in the shared content-addressed result
// store (internal/store), so a preceding `optima dse -cache-dir <dir>` makes
// corner selection here free. -cpuprofile/-memprofile write pprof profiles
// of the run (CPU sampling over the whole analysis, heap snapshot at exit)
// for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"optima/internal/cli"
	"optima/internal/exp"
	"optima/internal/report"
)

func main() {
	bench := flag.Bool("bench", false, "run the reduced protocol")
	noisy := flag.Bool("noisy", false, "sample per-operation mismatch in the multiplier")
	groups := cli.Model | cli.Workers | cli.Backend | cli.Cache | cli.Profile | cli.LogLevel | cli.SlowEval | cli.Remote
	err := cli.Run(flag.CommandLine, os.Args[1:], groups, func(ctx *exp.Context, out *report.Output) error {
		return run(ctx, out, *bench, *noisy)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "optima-dnn:", err)
		os.Exit(1)
	}
}

func run(ctx *exp.Context, out *report.Output, bench, noisy bool) error {
	sel, err := ctx.Selection()
	if err != nil {
		return err
	}
	fmt.Printf("corners: fom %v | power %v | variation %v\n",
		sel.FOM.Config, sel.Power.Config, sel.Variation.Config)

	scale := exp.FullDNNScale()
	if bench {
		scale = exp.BenchDNNScale()
	}
	scale.NoisyLUT = noisy

	start := time.Now()
	data, err := ctx.RunDNN(scale)
	if err != nil {
		return err
	}
	fmt.Printf("application analysis in %v\n\n", time.Since(start))
	fmt.Print(data.Table2.String())
	fmt.Println()
	fmt.Print(data.Table3.String())

	if err := out.WriteTable("table2_imagenet", data.Table2); err != nil {
		return err
	}
	if err := out.WriteTable("table3_cifar", data.Table3); err != nil {
		return err
	}
	cli.PrintTelemetry(ctx.Recorder)
	return nil
}
