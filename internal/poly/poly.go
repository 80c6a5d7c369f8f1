// Package poly implements the polynomial machinery behind OPTIMA's
// behavioral models: single-variable polynomials p_n(X) (the paper's
// notation for a degree-n polynomial with n+1 coefficients), least-squares
// fitting of such polynomials, and rank-1 separable two-variable products
// p_a(x)·p_b(y) fitted by alternating least squares — the exact functional
// form of the paper's Eq. 3 (VDD + p4(Vod)·p2(t)) and Eq. 6 (p3(t)·p3(V_WL)).
package poly

import (
	"errors"
	"fmt"
	"math"

	"optima/internal/linalg"
)

// Polynomial is a dense univariate polynomial. Coeffs[i] multiplies x^i,
// so the paper's p_n(X) is a Polynomial with n+1 coefficients.
type Polynomial struct {
	Coeffs []float64
}

// ErrFit is returned when a fit cannot be computed.
var ErrFit = errors.New("poly: fit failed")

// New returns a polynomial with the given coefficients (constant first).
func New(coeffs ...float64) Polynomial {
	c := make([]float64, len(coeffs))
	copy(c, coeffs)
	return Polynomial{Coeffs: c}
}

// Zero returns the zero polynomial of the given degree.
func Zero(degree int) Polynomial {
	return Polynomial{Coeffs: make([]float64, degree+1)}
}

// Eval evaluates the polynomial at x using Horner's rule.
func (p Polynomial) Eval(x float64) float64 {
	var y float64
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		y = y*x + p.Coeffs[i]
	}
	return y
}

// Scale returns the polynomial multiplied by s.
func (p Polynomial) Scale(s float64) Polynomial {
	out := make([]float64, len(p.Coeffs))
	for i, c := range p.Coeffs {
		out[i] = c * s
	}
	return Polynomial{Coeffs: out}
}

// String renders the polynomial in human-readable form.
func (p Polynomial) String() string {
	s := ""
	for i, c := range p.Coeffs {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%.6g", c)
		if i == 1 {
			s += "·x"
		} else if i > 1 {
			s += fmt.Sprintf("·x^%d", i)
		}
	}
	return s
}

// Vandermonde builds the (len(xs) × degree+1) design matrix with rows
// [1, x, x², …, x^degree].
func Vandermonde(xs []float64, degree int) *linalg.Matrix {
	m := linalg.NewMatrix(len(xs), degree+1)
	for i, x := range xs {
		v := 1.0
		for j := 0; j <= degree; j++ {
			m.Set(i, j, v)
			v *= x
		}
	}
	return m
}

// Fit fits a degree-n polynomial to the samples (xs, ys) in the
// least-squares sense via Householder QR and returns it together with the
// RMS residual.
func Fit(xs, ys []float64, degree int) (Polynomial, float64, error) {
	if len(xs) != len(ys) {
		return Polynomial{}, 0, fmt.Errorf("poly: %d x-values vs %d y-values: %w", len(xs), len(ys), ErrFit)
	}
	if len(xs) < degree+1 {
		return Polynomial{}, 0, fmt.Errorf("poly: %d samples cannot determine degree-%d polynomial: %w", len(xs), degree, ErrFit)
	}
	a := Vandermonde(xs, degree)
	coeffs, resid, err := linalg.LeastSquares(a, ys)
	if err != nil {
		return Polynomial{}, 0, fmt.Errorf("poly: %v: %w", err, ErrFit)
	}
	rms := resid / math.Sqrt(float64(len(xs)))
	return Polynomial{Coeffs: coeffs}, rms, nil
}

// Sample is one observation of a two-variable function z = f(x, y).
type Sample struct {
	X, Y, Z float64
}

// Separable is the rank-1 product model f(x, y) = PX(x) · PY(y).
// The scale ambiguity (c·PX)·(PY/c) is resolved by normalizing PY to unit
// leading-coefficient magnitude after fitting.
type Separable struct {
	PX Polynomial
	PY Polynomial
}

// FitSeparable fits the rank-1 model PX(x)·PY(y) of the given degrees to the
// samples by alternating least squares: holding PY fixed, the model is linear
// in PX's coefficients (weighted Vandermonde) and vice versa. Iteration stops
// when the RMS residual improves by less than tol (relative), or after
// maxIter rounds. Returns the fitted model and the final RMS residual.
func FitSeparable(samples []Sample, degX, degY, maxIter int, tol float64) (Separable, float64, error) {
	if len(samples) < (degX+1)+(degY+1) {
		return Separable{}, 0, fmt.Errorf("poly: %d samples for separable fit of degrees (%d,%d): %w",
			len(samples), degX, degY, ErrFit)
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	if tol <= 0 {
		tol = 1e-12
	}
	// Initialize PY to the best polynomial in y alone (averaging over x),
	// which is a good starting point when the function is close to rank-1.
	ys := make([]float64, len(samples))
	zs := make([]float64, len(samples))
	for i, s := range samples {
		ys[i] = s.Y
		zs[i] = s.Z
	}
	py, _, err := Fit(ys, zs, degY)
	if err != nil {
		return Separable{}, 0, err
	}
	if maxAbsCoeff(py) == 0 {
		py = onesPoly(degY)
	}
	px := Zero(degX)
	prevRMS := math.Inf(1)
	var rms float64
	for iter := 0; iter < maxIter; iter++ {
		// Solve for PX with PY fixed: z_i ≈ Σ_j a_j x_i^j · PY(y_i).
		px, err = fitScaled(samples, degX, func(s Sample) (float64, float64) {
			return s.X, py.Eval(s.Y)
		})
		if err != nil {
			return Separable{}, 0, err
		}
		// Solve for PY with PX fixed.
		py, err = fitScaled(samples, degY, func(s Sample) (float64, float64) {
			return s.Y, px.Eval(s.X)
		})
		if err != nil {
			return Separable{}, 0, err
		}
		rms = separableRMS(samples, px, py)
		if prevRMS-rms < tol*math.Max(1, prevRMS) {
			break
		}
		prevRMS = rms
	}
	// Normalize: move PY's scale into PX so that max |PY coeff| = 1.
	scale := maxAbsCoeff(py)
	if scale > 0 {
		py = py.Scale(1 / scale)
		px = px.Scale(scale)
	}
	return Separable{PX: px, PY: py}, rms, nil
}

// fitScaled solves the weighted Vandermonde system z_i ≈ Σ_j c_j t_i^j · w_i
// where (t_i, w_i) = basis(sample_i).
func fitScaled(samples []Sample, degree int, basis func(Sample) (t, w float64)) (Polynomial, error) {
	a := linalg.NewMatrix(len(samples), degree+1)
	b := make([]float64, len(samples))
	for i, s := range samples {
		t, w := basis(s)
		v := w
		for j := 0; j <= degree; j++ {
			a.Set(i, j, v)
			v *= t
		}
		b[i] = s.Z
	}
	coeffs, _, err := linalg.LeastSquares(a, b)
	if err != nil {
		return Polynomial{}, fmt.Errorf("poly: %v: %w", err, ErrFit)
	}
	return Polynomial{Coeffs: coeffs}, nil
}

func separableRMS(samples []Sample, px, py Polynomial) float64 {
	var ss float64
	for _, s := range samples {
		d := px.Eval(s.X)*py.Eval(s.Y) - s.Z
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(samples)))
}

func maxAbsCoeff(p Polynomial) float64 {
	var m float64
	for _, c := range p.Coeffs {
		if a := math.Abs(c); a > m {
			m = a
		}
	}
	return m
}

func onesPoly(degree int) Polynomial {
	c := make([]float64, degree+1)
	for i := range c {
		c[i] = 1
	}
	return Polynomial{Coeffs: c}
}
