// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the same experiment code as cmd/optima /
// cmd/optima-dnn (package internal/exp) and reports the headline metric of
// its artifact via b.ReportMetric, so `go test -bench=.` reproduces the
// full evaluation and prints paper-comparable numbers.
package optima_test

import (
	"sync"
	"testing"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/dse"
	"optima/internal/exp"
	"optima/internal/mult"
	"optima/internal/stats"
)

var (
	benchOnce sync.Once
	benchCtx  *exp.Context
	benchErr  error
)

// benchContext calibrates the shared experiment context once per process
// (full calibration recipe — the same one the committed artifacts use).
func benchContext(b *testing.B) *exp.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx, benchErr = exp.NewContext(core.DefaultCalibration())
	})
	if benchErr != nil {
		b.Fatalf("calibration: %v", benchErr)
	}
	return benchCtx
}

func fomCfg() mult.Config { return mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0} }

// BenchmarkFig1StateOfTheArt regenerates the published design-space
// comparison (paper Fig. 1).
func BenchmarkFig1StateOfTheArt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, chart := exp.Fig1()
		if tbl.NumRows() != 4 || len(chart.Series) != 4 {
			b.Fatal("Fig. 1 artifacts incomplete")
		}
	}
}

// BenchmarkFig4Nonidealities regenerates the golden discharge non-ideality
// curves (paper Fig. 4) and reports the '0'-code asymmetry.
func BenchmarkFig4Nonidealities(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var sub float64
	for i := 0; i < b.N; i++ {
		data, err := ctx.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		sub = data.SubVtDischarge
	}
	b.ReportMetric(sub*1e3, "zero-code-mV")
}

// BenchmarkFig5PVTVariations regenerates the PVT-variation curves (paper
// Fig. 5) with a reduced Monte-Carlo population and reports the mismatch
// band (paper: ≈ ±15 mV).
func BenchmarkFig5PVTVariations(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var band float64
	for i := 0; i < b.N; i++ {
		data, err := ctx.Fig5(60)
		if err != nil {
			b.Fatal(err)
		}
		band = data.MismatchSpreadMV
	}
	b.ReportMetric(band, "mismatch-3sigma-mV")
}

// BenchmarkFig6ModelEvaluation runs a full calibration (golden sweeps +
// least-squares fits) and reports the supply-model RMS error — the paper's
// headline 0.88 mV.
func BenchmarkFig6ModelEvaluation(b *testing.B) {
	var rms float64
	for i := 0; i < b.N; i++ {
		model, err := core.Calibrate(core.DefaultCalibration())
		if err != nil {
			b.Fatal(err)
		}
		rms = model.Report.VDDRMSVolts
	}
	b.ReportMetric(rms*1e3, "vdd-rms-mV")
}

// BenchmarkFig7DesignSpace runs the 48-corner exploration (paper Fig. 7).
func BenchmarkFig7DesignSpace(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mets, err := dse.Sweep(ctx.Model, dse.DefaultGrid(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(mets) != 48 {
			b.Fatalf("%d corners", len(mets))
		}
	}
}

// BenchmarkTable1SelectedCorners applies the corner-selection rules (paper
// Table I) and reports the fom corner's error and energy (paper: 4.78 LSB,
// 44 fJ).
func BenchmarkTable1SelectedCorners(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var sel dse.Selection
	for i := 0; i < b.N; i++ {
		mets, err := dse.Sweep(ctx.Model, dse.DefaultGrid(), 0)
		if err != nil {
			b.Fatal(err)
		}
		sel, err = dse.Select(mets)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sel.FOM.EpsMul, "fom-eps-LSB")
	b.ReportMetric(sel.FOM.EMul*1e15, "fom-E-fJ")
	b.ReportMetric((ctx.Model.Energy.WriteEnergy(1.0, 27)+sel.FOM.EMul)*1e12, "op-energy-pJ")
}

// BenchmarkFig8CornerAnalysis profiles the selected corners by expected
// result and under supply/temperature excursions (paper Fig. 8).
func BenchmarkFig8CornerAnalysis(b *testing.B) {
	ctx := benchContext(b)
	if _, err := ctx.Selection(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2ImageNetDNN runs the reduced application-analysis protocol
// on the ImageNet substitute (paper Table II; full protocol via
// cmd/optima-dnn) and reports the fom-vs-INT4 top-1 gap.
func BenchmarkTable2ImageNetDNN(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var gap float64
	for i := 0; i < b.N; i++ {
		data, err := ctx.RunDNN(exp.BenchDNNScale())
		if err != nil {
			b.Fatal(err)
		}
		gap = data.ImageNet[0].Int4[0] - data.ImageNet[0].Fom[0]
	}
	b.ReportMetric(gap, "fom-top1-drop-pct")
}

// BenchmarkTable3CIFARDNN runs the transfer-learning protocol on the
// CIFAR substitute (paper Table III) with the smallest scale.
func BenchmarkTable3CIFARDNN(b *testing.B) {
	ctx := benchContext(b)
	scale := exp.BenchDNNScale()
	scale.Models = scale.Models[:1]
	b.ResetTimer()
	var gap float64
	for i := 0; i < b.N; i++ {
		data, err := ctx.RunDNN(scale)
		if err != nil {
			b.Fatal(err)
		}
		gap = data.CIFAR[0].Int4[0] - data.CIFAR[0].Fom[0]
	}
	b.ReportMetric(gap, "fom-top1-drop-pct")
}

// BenchmarkSpeedupInputSpace measures the behavioral-vs-golden speed-up for
// full input-space iteration (paper: ~101×).
func BenchmarkSpeedupInputSpace(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := ctx.SpeedupInputSpace(fomCfg())
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Speedup()
	}
	b.ReportMetric(speedup, "speedup-x")
}

// BenchmarkSpeedupMonteCarlo measures the behavioral-vs-golden speed-up for
// mismatch Monte-Carlo sampling (paper: 28.1×).
func BenchmarkSpeedupMonteCarlo(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := ctx.SpeedupMonteCarlo(fomCfg(), 100)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Speedup()
	}
	b.ReportMetric(speedup, "speedup-x")
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

// BenchmarkAblationEventKernel compares evaluating a multiplication through
// the discrete-event kernel (the paper's SystemVerilog-like flow) against
// direct model calls — the cost of the event abstraction.
func BenchmarkAblationEventKernel(b *testing.B) {
	ctx := benchContext(b)
	m, err := mult.NewBehavioral(ctx.Model, fomCfg(), device.Nominal())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("events", func(b *testing.B) {
		m.UseEvents = true
		for i := 0; i < b.N; i++ {
			if _, err := m.Multiply(uint(i)&15, uint(i>>4)&15, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		m.UseEvents = false
		for i := 0; i < b.N; i++ {
			if _, err := m.Multiply(uint(i)&15, uint(i>>4)&15, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMismatchSampling compares deterministic evaluation with
// the paper's per-operation mismatch sampling.
func BenchmarkAblationMismatchSampling(b *testing.B) {
	ctx := benchContext(b)
	m, err := mult.NewBehavioral(ctx.Model, fomCfg(), device.Nominal())
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	b.Run("deterministic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Multiply(uint(i)&15, 9, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Multiply(uint(i)&15, 9, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBehavioralModelEval measures one discharge-model evaluation —
// the cost unit of OPTIMA's event-based flow.
func BenchmarkBehavioralModelEval(b *testing.B) {
	ctx := benchContext(b)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ctx.Model.Discharge.VBL(1e-9, 0.8, 1.0, 27)
	}
	_ = sink
}

// BenchmarkAblationNonlinearDAC compares the paper's linear DAC against the
// trimmed nonlinear DAC extension (AID [15], which the paper cites as a
// potential solution to the quantization nonlinearity), reporting the
// deterministic input-space error of each.
func BenchmarkAblationNonlinearDAC(b *testing.B) {
	ctx := benchContext(b)
	linear, err := mult.NewBehavioral(ctx.Model, fomCfg(), device.Nominal())
	if err != nil {
		b.Fatal(err)
	}
	dac, err := mult.CalibrateNonlinearDAC(ctx.Model, fomCfg())
	if err != nil {
		b.Fatal(err)
	}
	trimmed, err := linear.WithNonlinearDAC(dac)
	if err != nil {
		b.Fatal(err)
	}
	sweepErr := func(b *testing.B, m *mult.Behavioral) float64 {
		var sum float64
		var n int
		for i := 0; i < b.N; i++ {
			for a := uint(0); a <= 15; a++ {
				for d := uint(0); d <= 15; d++ {
					r, err := m.Multiply(a, d, nil)
					if err != nil {
						b.Fatal(err)
					}
					e := r.ErrorLSB()
					if e < 0 {
						e = -e
					}
					sum += float64(e)
					n++
				}
			}
		}
		return sum / float64(n)
	}
	b.Run("linear-dac", func(b *testing.B) {
		b.ReportMetric(sweepErr(b, linear), "eps-LSB")
	})
	b.Run("nonlinear-dac", func(b *testing.B) {
		b.ReportMetric(sweepErr(b, trimmed), "eps-LSB")
	})
}

// BenchmarkAblationAnalogAccumulation compares K separate multiply+convert
// operations against the restored IMAC-style analog accumulation (the step
// the paper omitted), reporting energy per product.
func BenchmarkAblationAnalogAccumulation(b *testing.B) {
	ctx := benchContext(b)
	m, err := mult.NewBehavioral(ctx.Model, fomCfg(), device.Nominal())
	if err != nil {
		b.Fatal(err)
	}
	as := []uint{3, 7, 12, 1, 9, 15, 2, 5}
	ds := []uint{5, 2, 11, 14, 9, 15, 8, 6}
	b.Run("separate", func(b *testing.B) {
		var energy float64
		for i := 0; i < b.N; i++ {
			energy = 0
			for k := range as {
				r, err := m.Multiply(as[k], ds[k], nil)
				if err != nil {
					b.Fatal(err)
				}
				energy += r.Energy
			}
		}
		b.ReportMetric(energy/float64(len(as))*1e15, "fJ/product")
	})
	b.Run("accumulated", func(b *testing.B) {
		dp := mult.NewDotProduct(m)
		var energy float64
		for i := 0; i < b.N; i++ {
			r, err := dp.Compute(as, ds, nil)
			if err != nil {
				b.Fatal(err)
			}
			energy = r.Energy
		}
		b.ReportMetric(energy/float64(len(as))*1e15, "fJ/product")
	})
}
