package engine

import (
	"math"
	"math/rand/v2"
	"testing"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/mult"
)

// refExpectedAbsError is ExpectedAbsError as it was before boundaries were
// shared: every code evaluates both of its boundary CDFs, and the tails
// evaluate theirs again. The shared-boundary version must equal it bit for
// bit, because its values are cached and persisted.
func refExpectedAbsError(mu, sigma, lsb float64, expected int) float64 {
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
			p = cdf(upper)
		case k == mult.ADCMax:
			p = 1 - cdf(lower)
		default:
			p = cdf(upper) - cdf(lower)
		}
		sum += math.Abs(float64(k-expected)) * p
	}
	if lo > 0 {
		sum += math.Abs(float64(lo-expected)) * cdf((float64(lo)-0.5)*lsb)
	}
	if hi < mult.ADCMax {
		sum += math.Abs(float64(hi-expected)) * (1 - cdf((float64(hi)+0.5)*lsb))
	}
	return sum
}

// TestExpectedAbsErrorMatchesReference: on 400,000 seeded random inputs the
// shared-boundary sum equals the reference bit for bit. The inputs put the
// mean from 100 LSBs below the ADC range to 100 above it with σ from 0.001
// to 100 LSBs, so they cover every shape of window: empty ones on either
// side, windows clamped at 0 and at ADCMax, interior ones, and σ ≤ 0.
func TestExpectedAbsErrorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0x0e5c))
	const n = 400_000
	var empty, clampLo, clampHi, interior, noSigma int
	for i := 0; i < n; i++ {
		lsb := 0.5e-3 + 5.5e-3*rng.Float64()
		if i%7 == 0 {
			lsb = 1 // the unit-LSB scale of the analytic tests
		}
		mu := (-100 + 455*rng.Float64()) * lsb
		sigma := math.Pow(10, -3+5*rng.Float64()) * lsb
		switch i % 10 {
		case 0:
			sigma = 0
		case 1:
			sigma = -sigma
		}
		expected := rng.IntN(mult.ADCMax + 1)

		got := ExpectedAbsError(mu, sigma, lsb, expected)
		want := refExpectedAbsError(mu, sigma, lsb, expected)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ExpectedAbsError(%v, %v, %v, %d) = %v (%#x), reference %v (%#x)",
				mu, sigma, lsb, expected, got, math.Float64bits(got), want, math.Float64bits(want))
		}

		if sigma <= 0 {
			noSigma++
			continue
		}
		lo := int(math.Floor((mu-6*sigma)/lsb)) - 1
		hi := int(math.Ceil((mu+6*sigma)/lsb)) + 1
		switch {
		case max(lo, 0) > min(hi, mult.ADCMax):
			empty++
		case lo < 0:
			clampLo++
		case hi > mult.ADCMax:
			clampHi++
		default:
			interior++
		}
	}
	for _, c := range []struct {
		what string
		n    int
	}{{"empty windows", empty}, {"windows clamped at 0", clampLo}, {"windows clamped at ADCMax", clampHi},
		{"interior windows", interior}, {"σ ≤ 0 inputs", noSigma}} {
		if c.n < 1000 {
			t.Errorf("only %d %s among %d inputs: the generator no longer covers them", c.n, c.what, n)
		}
	}
}

// TestExpectedAbsErrorMatchesReferenceOnGrid: every call the behavioral
// backend makes for the paper's 48-corner grid at three conditions equals
// the reference bit for bit.
func TestExpectedAbsErrorMatchesReferenceOnGrid(t *testing.T) {
	equivOnce.Do(func() {
		equivModel, equivErr = core.Calibrate(core.QuickCalibration())
	})
	if equivErr != nil {
		t.Fatal(equivErr)
	}
	conds := []device.PVT{device.Nominal(),
		{Corner: device.CornerSS, VDD: 0.9, TempC: 60}, {Corner: device.CornerFF, VDD: 1.1, TempC: 0}}
	calls := 0
	for _, cond := range conds {
		for _, tau0 := range []float64{0.16e-9, 0.20e-9, 0.24e-9, 0.28e-9} {
			for _, vdac0 := range []float64{0.3, 0.4, 0.5} {
				for _, vdacfs := range []float64{0.7, 0.8, 0.9, 1.0} {
					cfg := mult.Config{Tau0: tau0, VDAC0: vdac0, VDACFS: vdacfs}
					bm, err := mult.NewBehavioral(equivModel, cfg, cond)
					if err != nil {
						continue // an invalid corner of the grid
					}
					for a := uint(0); a <= mult.OperandMax; a++ {
						for d := uint(0); d <= mult.OperandMax; d++ {
							r, err := bm.MultiplyDet(a, d)
							if err != nil {
								t.Fatal(err)
							}
							mu := r.VComb
							sigma := math.Hypot(r.Sigma, mult.DefaultADCSigma)
							got := ExpectedAbsError(mu, sigma, bm.LSBVolt, r.Expected)
							want := refExpectedAbsError(mu, sigma, bm.LSBVolt, r.Expected)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%v at %v, (%d, %d): %v, reference %v", cfg, cond, a, d, got, want)
							}
							calls++
						}
					}
				}
			}
		}
	}
	if calls < 48*256 {
		t.Fatalf("compared %d calls, want at least one grid's %d", calls, 48*256)
	}
}
