package poly

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"optima/internal/stats"
)

func TestEvalHorner(t *testing.T) {
	p := New(1, -2, 3) // 1 − 2x + 3x²
	cases := []struct{ x, want float64 }{
		{0, 1}, {1, 2}, {2, 9}, {-1, 6},
	}
	for _, c := range cases {
		if got := p.Eval(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestFitRecoversExactPolynomial(t *testing.T) {
	want := New(0.5, -1.5, 2, 0.25)
	xs := stats.Linspace(-2, 2, 40)
	ys := evalAll(want, xs)
	got, rms, err := Fit(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rms > 1e-10 {
		t.Fatalf("rms = %g, want ~0", rms)
	}
	for i := range want.Coeffs {
		if math.Abs(got.Coeffs[i]-want.Coeffs[i]) > 1e-8 {
			t.Fatalf("coeffs = %v, want %v", got.Coeffs, want.Coeffs)
		}
	}
}

func TestFitUnderdetermined(t *testing.T) {
	if _, _, err := Fit([]float64{1, 2}, []float64{1, 2}, 3); !errors.Is(err, ErrFit) {
		t.Fatalf("err = %v, want ErrFit", err)
	}
	if _, _, err := Fit([]float64{1}, []float64{1, 2}, 0); !errors.Is(err, ErrFit) {
		t.Fatalf("length mismatch: err = %v, want ErrFit", err)
	}
}

func TestFitNoisyDataReasonableRMS(t *testing.T) {
	rng := stats.NewRNG(2)
	truth := New(1, 2, -0.5)
	xs := stats.Linspace(0, 4, 200)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = truth.Eval(x) + rng.Gaussian(0, 0.01)
	}
	_, rms, err := Fit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rms < 0.005 || rms > 0.02 {
		t.Fatalf("rms = %g, want ≈0.01", rms)
	}
}

func TestVandermondeShape(t *testing.T) {
	m := Vandermonde([]float64{2, 3}, 2)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape %d×%d", m.Rows(), m.Cols())
	}
	if m.At(0, 2) != 4 || m.At(1, 2) != 9 {
		t.Fatalf("x² column wrong: %v %v", m.At(0, 2), m.At(1, 2))
	}
}

func TestFitSeparableRecoversRank1(t *testing.T) {
	px := New(0, -0.8, 0.3) // in x
	py := New(0.1, 1.0)     // in y
	var samples []Sample
	for _, x := range stats.Linspace(0, 1, 15) {
		for _, y := range stats.Linspace(0, 2, 15) {
			samples = append(samples, Sample{X: x, Y: y, Z: px.Eval(x) * py.Eval(y)})
		}
	}
	fit, rms, err := FitSeparable(samples, 2, 1, 60, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if rms > 1e-9 {
		t.Fatalf("rms = %g, want ~0", rms)
	}
	// The product must match even though individual factors may be rescaled.
	for _, s := range samples {
		if math.Abs(fit.PX.Eval(s.X)*fit.PY.Eval(s.Y)-s.Z) > 1e-8 {
			t.Fatalf("fit(%g,%g) = %g, want %g", s.X, s.Y, fit.PX.Eval(s.X)*fit.PY.Eval(s.Y), s.Z)
		}
	}
}

func TestFitSeparableNormalization(t *testing.T) {
	var samples []Sample
	for _, x := range stats.Linspace(0.1, 1, 10) {
		for _, y := range stats.Linspace(0.1, 1, 10) {
			samples = append(samples, Sample{X: x, Y: y, Z: 3 * x * y})
		}
	}
	fit, _, err := FitSeparable(samples, 1, 1, 60, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	var maxAbs float64
	for _, c := range fit.PY.Coeffs {
		if a := math.Abs(c); a > maxAbs {
			maxAbs = a
		}
	}
	if math.Abs(maxAbs-1) > 1e-9 {
		t.Fatalf("PY max |coeff| = %g, want 1 (normalized)", maxAbs)
	}
}

func TestFitSeparableTooFewSamples(t *testing.T) {
	samples := []Sample{{1, 1, 1}, {2, 2, 4}}
	if _, _, err := FitSeparable(samples, 2, 2, 10, 0); !errors.Is(err, ErrFit) {
		t.Fatalf("err = %v, want ErrFit", err)
	}
}

// TestFitSeparableMissesRank2 pins the limit of the paper's rank-1 form:
// f(x,y) = 1 + x·y + x²·y² is rank-2, so the separable fit keeps a residual.
func TestFitSeparableMissesRank2(t *testing.T) {
	f := func(x, y float64) float64 { return 1 + x*y + x*x*y*y }
	var samples []Sample
	for _, x := range stats.Linspace(-1, 1, 12) {
		for _, y := range stats.Linspace(-1, 1, 12) {
			samples = append(samples, Sample{X: x, Y: y, Z: f(x, y)})
		}
	}
	_, rms, err := FitSeparable(samples, 2, 2, 60, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if rms < 0.05 {
		t.Fatalf("separable rms %g on a rank-2 target, want ≥ 0.05", rms)
	}
}

func TestFitProductThreeFactors(t *testing.T) {
	// Paper Eq. 8 shape: p1(x)·p3(y)·p1(z).
	fx := New(2, 1)
	fy := New(0, 0.5, 0, 0.25)
	fz := New(1, -0.2)
	var samples []SampleN
	for _, x := range stats.Linspace(0.8, 1.2, 6) {
		for _, y := range stats.Linspace(0, 0.6, 8) {
			for _, z := range stats.Linspace(0, 80, 6) {
				samples = append(samples, SampleN{
					Xs: []float64{x, y, z},
					Z:  fx.Eval(x) * fy.Eval(y) * fz.Eval(z),
				})
			}
		}
	}
	fit, rms, err := FitProduct(samples, []int{1, 3, 1}, 80, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if rms > 1e-6 {
		t.Fatalf("rms = %g, want ~0", rms)
	}
	for _, s := range samples[:20] {
		if got := fit.Eval(s.Xs...); math.Abs(got-s.Z) > 1e-5*(1+math.Abs(s.Z)) {
			t.Fatalf("fit(%v) = %g, want %g", s.Xs, got, s.Z)
		}
	}
}

func TestFitProductValidation(t *testing.T) {
	if _, _, err := FitProduct(nil, nil, 0, 0); !errors.Is(err, ErrFit) {
		t.Fatalf("no factors: err = %v", err)
	}
	samples := []SampleN{{Xs: []float64{1}, Z: 1}}
	if _, _, err := FitProduct(samples, []int{3}, 0, 0); !errors.Is(err, ErrFit) {
		t.Fatalf("too few samples: err = %v", err)
	}
	bad := []SampleN{{Xs: []float64{1, 2}, Z: 1}, {Xs: []float64{1}, Z: 1}, {Xs: []float64{3, 1}, Z: 2}}
	if _, _, err := FitProduct(bad, []int{1, 1}, 0, 0); !errors.Is(err, ErrFit) {
		t.Fatalf("ragged sample: err = %v", err)
	}
}

func TestProductEvalPanicsOnArity(t *testing.T) {
	p := Product{Factors: []Polynomial{New(1), New(1)}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Eval(1)
}

// Property: fitting samples of a random polynomial of degree ≤ 3 recovers a
// polynomial that interpolates those samples.
func TestFitInterpolationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		truth := New(rng.Uniform(-2, 2), rng.Uniform(-2, 2), rng.Uniform(-2, 2), rng.Uniform(-2, 2))
		xs := stats.Linspace(-1, 1, 25)
		ys := evalAll(truth, xs)
		fit, _, err := Fit(xs, ys, 3)
		if err != nil {
			return false
		}
		for i, x := range xs {
			if math.Abs(fit.Eval(x)-ys[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAndString(t *testing.T) {
	p := New(1, 2).Scale(3)
	if p.Eval(1) != 9 {
		t.Fatalf("scaled eval = %g, want 9", p.Eval(1))
	}
	if s := New(1, 2, 3).String(); s == "" {
		t.Fatal("empty String()")
	}
}

// evalAll evaluates p at every point of xs.
func evalAll(p Polynomial, xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = p.Eval(x)
	}
	return out
}
