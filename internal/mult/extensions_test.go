package mult

import (
	"math"
	"testing"

	"optima/internal/device"
	"optima/internal/stats"
)

func TestNonlinearDACMonotoneLevels(t *testing.T) {
	m := testModel(t)
	dac, err := CalibrateNonlinearDAC(m, fomConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dac.Levels[0] != 0.3 || dac.Levels[15] != 1.0 {
		t.Fatalf("endpoints moved: %g, %g", dac.Levels[0], dac.Levels[15])
	}
	for a := 1; a <= 15; a++ {
		if dac.Levels[a] < dac.Levels[a-1] {
			t.Fatalf("levels not monotone at %d: %v", a, dac.Levels)
		}
	}
	// The trim must bend the mid-codes upward (the device transfer is
	// convex, so linearizing requires boosting the low/mid codes).
	linearMid := 0.3 + 7.5*(1.0-0.3)/15
	if dac.Levels[7] <= linearMid && dac.Levels[8] <= linearMid {
		t.Fatalf("mid levels %g/%g not predistorted vs linear %g", dac.Levels[7], dac.Levels[8], linearMid)
	}
}

func TestNonlinearDACImprovesLinearity(t *testing.T) {
	m := testModel(t)
	cfg := fomConfig()
	linear, err := NewBehavioral(m, cfg, device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	dac, err := CalibrateNonlinearDAC(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trimmed, err := linear.WithNonlinearDAC(dac)
	if err != nil {
		t.Fatal(err)
	}
	avgAbs := func(b *Behavioral) float64 {
		var acc stats.Accumulator
		for a := uint(0); a <= 15; a++ {
			for d := uint(0); d <= 15; d++ {
				r, err := b.Multiply(a, d, nil)
				if err != nil {
					t.Fatal(err)
				}
				acc.Add(math.Abs(float64(r.ErrorLSB())))
			}
		}
		return acc.Mean()
	}
	lin, nl := avgAbs(linear), avgAbs(trimmed)
	if nl >= lin {
		t.Fatalf("nonlinear DAC did not improve the deterministic error: %.3f vs %.3f LSB", nl, lin)
	}
}

func TestNonlinearDACDoesNotMutateOriginal(t *testing.T) {
	m := testModel(t)
	b, err := NewBehavioral(m, fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	lsb, levels := b.LSBVolt, b.levels
	dac, err := CalibrateNonlinearDAC(m, fomConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WithNonlinearDAC(dac); err != nil {
		t.Fatal(err)
	}
	if b.levels != levels || b.LSBVolt != lsb {
		t.Fatal("WithNonlinearDAC mutated the receiver")
	}
}

// TestNonlinearDACCopied: WithNonlinearDAC keeps its own copy of the DAC
// levels, so an edit of the caller's DAC after construction moves neither
// the table's products (MultiplyDet) nor the per-call ones (Multiply).
func TestNonlinearDACCopied(t *testing.T) {
	m := testModel(t)
	b, err := NewBehavioral(m, fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	dac, err := CalibrateNonlinearDAC(m, fomConfig())
	if err != nil {
		t.Fatal(err)
	}
	nl, err := b.WithNonlinearDAC(dac)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nl.Multiply(9, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	dac.Levels[9] += 0.05
	det, err := nl.MultiplyDet(9, 7)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := nl.Multiply(9, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if det != want || direct != want {
		t.Fatalf("after the DAC edit MultiplyDet gives code %d and Multiply %d, want %d as built:\n%+v\n%+v\n%+v",
			det.Code, direct.Code, want.Code, det, direct, want)
	}
}

func TestDotProductMatchesSumOfProducts(t *testing.T) {
	m := testModel(t)
	b, err := NewBehavioral(m, fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDotProduct(b)
	as := []uint{3, 7, 12, 1, 9, 15, 0, 5}
	ds := []uint{5, 2, 11, 14, 9, 15, 8, 0}
	res, err := dp.Compute(as, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range as {
		want += int(as[i] * ds[i])
	}
	if res.Expected != want {
		t.Fatalf("expected field %d, want %d", res.Expected, want)
	}
	if e := res.Code - res.Expected; e < -30 || e > 30 {
		t.Fatalf("dot-product error %d units too large for K=8", e)
	}
	if res.K != 8 {
		t.Fatalf("K = %d", res.K)
	}
}

func TestDotProductAmortizesEnergy(t *testing.T) {
	m := testModel(t)
	b, err := NewBehavioral(m, fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDotProduct(b)
	as := []uint{9, 9, 9, 9, 9, 9, 9, 9}
	ds := []uint{7, 7, 7, 7, 7, 7, 7, 7}
	acc, err := dp.Compute(as, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	var separate float64
	for i := range as {
		r, err := b.Multiply(as[i], ds[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		separate += r.Energy
	}
	if acc.Energy >= separate {
		t.Fatalf("accumulation (%.1f fJ) should be cheaper than %d separate ops (%.1f fJ)",
			acc.Energy*1e15, len(as), separate*1e15)
	}
}

func TestDotProductMismatchAveraging(t *testing.T) {
	m := testModel(t)
	b, err := NewBehavioral(m, fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDotProduct(b)
	// The accumulated σ per product must be smaller than a single
	// multiplication's σ (uncorrelated mismatch averages on the shared caps).
	single, err := b.Multiply(9, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	as := make([]uint, 8)
	ds := make([]uint, 8)
	for i := range as {
		as[i], ds[i] = 9, 7
	}
	acc, err := dp.Compute(as, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	perProductSigma := acc.Sigma * float64(acc.K) / float64(acc.K) // V_acc is the mean
	if perProductSigma >= single.Sigma {
		t.Fatalf("accumulated σ %.3g V not below single-op σ %.3g V", perProductSigma, single.Sigma)
	}
}

func TestDotProductValidation(t *testing.T) {
	m := testModel(t)
	b, err := NewBehavioral(m, fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDotProduct(b)
	if _, err := dp.Compute(nil, nil, nil); err == nil {
		t.Fatal("empty vectors accepted")
	}
	if _, err := dp.Compute([]uint{1}, []uint{1, 2}, nil); err == nil {
		t.Fatal("mismatched vectors accepted")
	}
	if _, err := dp.Compute([]uint{16}, []uint{1}, nil); err == nil {
		t.Fatal("oversized operand accepted")
	}
	huge := make([]uint, 100)
	if _, err := dp.Compute(huge, huge, nil); err == nil {
		t.Fatal("range overflow accepted")
	}
	// 19 full-scale products sum to 4275 > 4095, the 12-bit accumulation
	// range: the unit must refuse them rather than clip the code.
	full := make([]uint, 19)
	for i := range full {
		full[i] = OperandMax
	}
	if res, err := dp.Compute(full, full, nil); err == nil {
		t.Fatalf("K=19 at full scale accepted: expected %d, code %d", res.Expected, res.Code)
	}
	if _, err := dp.Compute(full[:18], full[:18], nil); err != nil {
		t.Fatalf("K=18 at full scale rejected: %v", err)
	}
}

func TestDotProductNoiseSampling(t *testing.T) {
	m := testModel(t)
	b, err := NewBehavioral(m, fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDotProduct(b)
	rng := stats.NewRNG(5)
	as := []uint{4, 8, 12}
	ds := []uint{3, 6, 9}
	var acc stats.Accumulator
	for i := 0; i < 200; i++ {
		r, err := dp.Compute(as, ds, rng)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(float64(r.Code))
	}
	if acc.StdDev() == 0 {
		t.Fatal("sampled dot product produced no spread")
	}
	det, err := dp.Compute(as, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc.Mean()-float64(det.Code)) > 6*acc.StdDev()/math.Sqrt(200)+1 {
		t.Fatalf("MC mean %.1f far from deterministic %d", acc.Mean(), det.Code)
	}
}
