// Experiment tests: regenerate the paper's evaluation end-to-end and check
// the qualitative claims — who wins, by roughly what factor, where the
// failure modes sit. These are the integration tests of the reproduction;
// the quantitative paper-vs-measured comparison is in the artifacts
// themselves, which print the paper's numbers (package internal/refdata)
// next to the measured ones.
package optima_test

import (
	"sync"
	"testing"

	"optima/internal/core"
	"optima/internal/exp"
	"optima/internal/mult"
)

var (
	expOnce sync.Once
	expCtx  *exp.Context
	expErr  error
)

func experimentContext(t *testing.T) *exp.Context {
	t.Helper()
	expOnce.Do(func() {
		expCtx, expErr = exp.NewContext(core.DefaultCalibration())
	})
	if expErr != nil {
		t.Fatalf("calibration: %v", expErr)
	}
	return expCtx
}

func TestExperimentFig6ModelAccuracy(t *testing.T) {
	ctx := experimentContext(t)
	data, err := ctx.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", data.RMSTable.String())
	r := ctx.Model.Report
	// Paper claim: RMS modeling errors below typical ADC LSB voltages.
	// Our fom-corner LSB is ≈0.45 mV; the basic/mismatch models beat it and
	// the PVT extensions stay within a few millivolt.
	if r.BaseRMSVolts > 1e-3 {
		t.Errorf("base discharge RMS %.2f mV exceeds 1 mV", r.BaseRMSVolts*1e3)
	}
	if r.VDDRMSVolts > 6e-3 {
		t.Errorf("supply model RMS %.2f mV exceeds 6 mV", r.VDDRMSVolts*1e3)
	}
	if r.TempRMSVolts > 3e-3 {
		t.Errorf("temperature model RMS %.2f mV exceeds 3 mV", r.TempRMSVolts*1e3)
	}
}

func TestExperimentFig4Asymmetry(t *testing.T) {
	ctx := experimentContext(t)
	data, err := ctx.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// Section III-1: a '0' input still discharges the bit line slightly.
	if data.SubVtDischarge <= 0 {
		t.Fatal("no zero-code discharge — the asymmetry of Fig. 4a is missing")
	}
	if data.SubVtDischarge > 0.1 {
		t.Fatalf("zero-code discharge %.1f mV implausibly large", data.SubVtDischarge*1e3)
	}
}

func TestExperimentFig5MismatchBand(t *testing.T) {
	ctx := experimentContext(t)
	data, err := ctx.Fig5(120)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 5d: the 1000-sample band spans ≈ −10…+20 mV at 2 ns.
	if data.MismatchSpreadMV < 5 || data.MismatchSpreadMV > 40 {
		t.Fatalf("±3σ mismatch band = ±%.1f mV, outside the Fig. 5d regime", data.MismatchSpreadMV)
	}
}

func TestExperimentTable1Corners(t *testing.T) {
	ctx := experimentContext(t)
	data, err := ctx.Table1()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", data.Table.String())
	sel := data.Selection
	// Paper Table I: fom = (0.16 ns, 0.3 V, 1.0 V).
	want := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}
	if sel.FOM.Config != want {
		t.Errorf("fom corner = %v, want %v", sel.FOM.Config, want)
	}
	// Paper Table I: power = (0.16 ns, 0.3 V, 0.7 V).
	want = mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 0.7}
	if sel.Power.Config != want {
		t.Errorf("power corner = %v, want %v", sel.Power.Config, want)
	}
	// The error ordering of Table I: fom < variation, fom < power.
	if !(sel.FOM.EpsMul < sel.Power.EpsMul) {
		t.Errorf("ϵ(fom)=%.2f not below ϵ(power)=%.2f", sel.FOM.EpsMul, sel.Power.EpsMul)
	}
	if !(sel.FOM.EpsMul < sel.Variation.EpsMul) {
		t.Errorf("ϵ(fom)=%.2f not below ϵ(variation)=%.2f", sel.FOM.EpsMul, sel.Variation.EpsMul)
	}
	// Energy ordering: power < fom < variation.
	if !(sel.Power.EMul < sel.FOM.EMul && sel.FOM.EMul < sel.Variation.EMul) {
		t.Errorf("energy ordering violated: %g, %g, %g", sel.Power.EMul, sel.FOM.EMul, sel.Variation.EMul)
	}
	// Headline: ~1 pJ per operation including the write.
	if data.EnergyPerOpPJ < 0.8 || data.EnergyPerOpPJ > 1.4 {
		t.Errorf("energy per op %.2f pJ outside the ~1.05 pJ regime", data.EnergyPerOpPJ)
	}
}

func TestExperimentFig8SmallOperandFailure(t *testing.T) {
	ctx := experimentContext(t)
	sel, err := ctx.Selection()
	if err != nil {
		t.Fatal(err)
	}
	// The variation corner trades small-operand accuracy for large-operand
	// robustness (the paper's explanation for its DNN collapse).
	if !(sel.Variation.EpsSmall > sel.Variation.EpsLarge) {
		t.Errorf("variation corner: small-op ϵ %.2f not worse than large-op ϵ %.2f",
			sel.Variation.EpsSmall, sel.Variation.EpsLarge)
	}
	// The fom corner must not show that failure mode as strongly.
	ratioVar := sel.Variation.EpsSmall / sel.Variation.EpsLarge
	ratioFom := sel.FOM.EpsSmall / sel.FOM.EpsLarge
	if ratioFom >= ratioVar {
		t.Errorf("fom small/large ratio %.2f not below variation's %.2f", ratioFom, ratioVar)
	}
}

func TestExperimentSpeedup(t *testing.T) {
	ctx := experimentContext(t)
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}
	is, err := ctx.SpeedupInputSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ctx.SpeedupMonteCarlo(cfg, 60)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp.SpeedupTable(is, mc).String())
	// Paper: ~100× for input-space iteration, 28.1× for Monte Carlo. The
	// claim under test is order-of-magnitude speed-up in both modes.
	if is.Speedup() < 20 {
		t.Errorf("input-space speed-up %.1f×, want ≥ 20×", is.Speedup())
	}
	if mc.Speedup() < 20 {
		t.Errorf("Monte-Carlo speed-up %.1f×, want ≥ 20×", mc.Speedup())
	}
}

func TestExperimentDNNOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("DNN protocol takes ≈ a minute")
	}
	ctx := experimentContext(t)
	data, err := ctx.RunDNN(exp.BenchDNNScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", data.Table2.String())
	t.Logf("\n%s", data.Table3.String())
	for _, row := range data.ImageNet {
		// Paper Table II shape: FLOAT32 ≈ INT4 ≈ fom, power degrades,
		// variation collapses. With the reduced training budget we assert
		// the load-bearing gaps only.
		if row.Fom[0] < row.Variation[0] {
			t.Errorf("%s: fom top-1 %.1f below variation %.1f", row.Model, row.Fom[0], row.Variation[0])
		}
		if row.Int4[0]-row.Fom[0] > 25 {
			t.Errorf("%s: fom drops %.1f%% from INT4 — too large", row.Model, row.Int4[0]-row.Fom[0])
		}
		if row.Variation[0] > row.Int4[0]-10 {
			t.Errorf("%s: variation corner did not collapse (%.1f vs INT4 %.1f)",
				row.Model, row.Variation[0], row.Int4[0])
		}
		if row.MultsMillions <= 0 {
			t.Errorf("%s: missing multiplication count", row.Model)
		}
	}
}
