// Package poly implements the polynomial machinery behind OPTIMA's
// behavioral models: single-variable polynomials p_n(X) (the paper's
// notation for a degree-n polynomial with n+1 coefficients) and their
// least-squares fits. Every fit is one weighted solve, FitWeighted
// (z_i ≈ w_i·p(t_i), Householder QR over the design rows
// w_i·[1, t_i, t_i², …]); Fit is its unit-weight case. The rank-1 products
// of the paper's equations — Separable p_a(x)·p_b(y), the form of Eq. 3
// (VDD + p4(Vod)·p2(t)) and Eq. 6 (p3(t)·p3(V_WL)), and Product Π_k p_k(x_k)
// for Eq. 8 — share one alternating-least-squares loop that refits one
// factor at a time through FitWeighted, the others held fixed.
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

// FitWeighted fits the degree-n polynomial p minimizing
// Σ_i (w_i·p(t_i) − z_i)² via Householder QR and returns it together with
// the RMS residual. Row i of the design matrix is w_i·[1, t_i, …, t_i^n].
// Fewer samples than coefficients (none included) is ErrFit.
func FitWeighted(ts, ws, zs []float64, degree int) (Polynomial, float64, error) {
	if len(ts) != len(zs) || len(ws) != len(zs) {
		return Polynomial{}, 0, fmt.Errorf("poly: %d t-values, %d weights, %d z-values: %w", len(ts), len(ws), len(zs), ErrFit)
	}
	if degree < 0 || len(zs) < degree+1 {
		return Polynomial{}, 0, fmt.Errorf("poly: %d samples cannot determine degree-%d polynomial: %w", len(zs), degree, ErrFit)
	}
	a := linalg.NewMatrix(len(zs), degree+1)
	for i, t := range ts {
		v := ws[i]
		for j := 0; j <= degree; j++ {
			a.Set(i, j, v)
			v *= t
		}
	}
	coeffs, resid, err := linalg.LeastSquares(a, zs)
	if err != nil {
		return Polynomial{}, 0, fmt.Errorf("poly: %v: %w", err, ErrFit)
	}
	return Polynomial{Coeffs: coeffs}, resid / math.Sqrt(float64(len(zs))), nil
}

// Fit fits a degree-n polynomial to the samples (xs, ys) in the
// least-squares sense (FitWeighted with unit weights) and returns it
// together with the RMS residual.
func Fit(xs, ys []float64, degree int) (Polynomial, float64, error) {
	ones := make([]float64, len(xs))
	for i := range ones {
		ones[i] = 1
	}
	return FitWeighted(xs, ones, ys, degree)
}
