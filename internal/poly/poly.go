// Package poly implements the polynomial machinery behind OPTIMA's
// behavioral models: single-variable polynomials p_n(X) (the paper's
// notation for a degree-n polynomial with n+1 coefficients) and their
// least-squares fits. Every fit is one weighted solve, FitWeighted
// (z_i ≈ w_i·p(t_i) over the design rows w_i·[1, t_i, t_i², …], solved by
// this package's one Householder QR kernel, leastSquares); Fit is its
// unit-weight case. The rank-1 products
// of the paper's equations — Separable p_a(x)·p_b(y), the form of Eq. 3
// (VDD + p4(Vod)·p2(t)) and Eq. 6 (p3(t)·p3(V_WL)), and Product Π_k p_k(x_k)
// for Eq. 8 — share one alternating-least-squares loop that refits one
// factor at a time through FitWeighted, the others held fixed.
package poly

import (
	"errors"
	"fmt"
	"math"
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
	n := degree + 1
	a := make([]float64, len(zs)*n)
	for i, t := range ts {
		row, v := a[i*n:(i+1)*n], ws[i]
		for j := range row {
			row[j] = v
			v *= t
		}
	}
	coeffs, resid, err := leastSquares(a, n, zs)
	if err != nil {
		return Polynomial{}, 0, err
	}
	return Polynomial{Coeffs: coeffs}, resid / math.Sqrt(float64(len(zs))), nil
}

// leastSquares solves min ‖a·x − b‖₂ for the row-major len(b)×n design a
// (len(b) ≥ n, which FitWeighted guards) by Householder QR, and returns x
// and the residual 2-norm, computed from a itself. a is not modified. A
// pivot of R at or below 1e-12 of its largest |R_ii| means the columns are
// linearly dependent to working precision, which is ErrFit.
func leastSquares(a []float64, n int, b []float64) ([]float64, float64, error) {
	// qr is [a | b]: the reflectors that reduce a to R on and above the
	// diagonal (each stored below it, normalized so v_0 = 1) turn column n
	// into Qᵀb on the way.
	m, w := len(b), n+1
	qr := make([]float64, m*w)
	for i, bi := range b {
		copy(qr[i*w:], a[i*n:(i+1)*n])
		qr[i*w+n] = bi
	}
	for k := 0; k < n; k++ {
		// The 2-norm of column k on and below the diagonal, scaled so
		// that 1e200-sized entries do not overflow.
		scale, ssq := 0.0, 1.0
		for i := k; i < m; i++ {
			e := math.Abs(qr[i*w+k])
			if e == 0 {
				continue
			}
			if scale < e {
				r := scale / e
				ssq = 1 + ssq*r*r
				scale = e
			} else {
				r := e / scale
				ssq += r * r
			}
		}
		if scale == 0 {
			continue // a zero column: the reflector is the identity
		}
		alpha := scale * math.Sqrt(ssq)
		if qr[k*w+k] > 0 {
			alpha = -alpha
		}
		// v = x − alpha·e1, normalized so v_0 = 1, and τ = −v_0/alpha.
		v0 := qr[k*w+k] - alpha
		qr[k*w+k] = alpha
		for i := k + 1; i < m; i++ {
			qr[i*w+k] /= v0
		}
		tau := -v0 / alpha
		for j := k + 1; j < w; j++ {
			s := qr[k*w+j]
			for i := k + 1; i < m; i++ {
				s += qr[i*w+k] * qr[i*w+j]
			}
			s *= tau
			qr[k*w+j] -= s
			for i := k + 1; i < m; i++ {
				qr[i*w+j] -= s * qr[i*w+k]
			}
		}
	}
	var maxDiag float64
	for i := 0; i < n; i++ {
		if d := math.Abs(qr[i*w+i]); d > maxDiag {
			maxDiag = d
		}
	}
	tol := 1e-12 * maxDiag
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		d := qr[i*w+i]
		if math.Abs(d) <= tol {
			return nil, 0, fmt.Errorf("poly: negligible pivot at column %d: %w", i, ErrFit)
		}
		x[i] = qr[i*w+n]
		for j := i + 1; j < n; j++ {
			x[i] -= qr[i*w+j] * x[j]
		}
		x[i] /= d
	}
	var ss float64
	for i, bi := range b {
		var s float64
		for j, v := range a[i*n : (i+1)*n] {
			s += v * x[j]
		}
		d := s - bi
		ss += d * d
	}
	return x, math.Sqrt(ss), nil
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
