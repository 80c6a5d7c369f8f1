package poly

import (
	"fmt"
	"math"
)

// SampleN is one observation of an n-variable function z = f(x_1, …, x_n).
type SampleN struct {
	Xs []float64
	Z  float64
}

// Separable is the rank-1 product model f(x, y) = PX(x) · PY(y).
// The scale ambiguity (c·PX)·(PY/c) is resolved by normalizing PY to unit
// max |coeff| after fitting.
type Separable struct {
	PX Polynomial
	PY Polynomial
}

// Product is the rank-1 n-factor model f(x_1,…,x_n) = Π_k P_k(x_k),
// the generalization of Separable used by the paper's Eq. 8
// (E_dc = p1(VDD)·p3(ΔV_BL)·p1(T)).
type Product struct {
	Factors []Polynomial
}

// Eval evaluates the product model; len(xs) must match the factor count.
func (p Product) Eval(xs ...float64) float64 {
	if len(xs) != len(p.Factors) {
		panic(fmt.Sprintf("poly: product eval with %d args, want %d", len(xs), len(p.Factors)))
	}
	out := 1.0
	for k, f := range p.Factors {
		out *= f.Eval(xs[k])
	}
	return out
}

// FitSeparable fits the rank-1 model PX(x)·PY(y) of the given degrees to
// samples of two coordinates (x, y) by the alternating least squares of
// FitProduct, started from a marginal fit of PY. Returns the fitted model,
// PY normalized to unit max |coeff|, and the final RMS residual.
func FitSeparable(samples []SampleN, degX, degY, maxIter int, tol float64) (Separable, float64, error) {
	p, rms, err := fitALS(samples, []int{degX, degY}, 1, maxIter, tol)
	if err != nil {
		return Separable{}, 0, err
	}
	return Separable{PX: p.Factors[0], PY: p.Factors[1]}, rms, nil
}

// FitProduct fits the rank-1 n-factor product of the given degrees by
// cyclic alternating least squares: each factor in turn is refitted with
// the others held fixed (a linear problem). The factor of highest degree
// starts from a marginal fit and absorbs the initial magnitude. Iteration
// stops when the RMS residual improvement falls below tol, or after
// maxIter sweeps.
func FitProduct(samples []SampleN, degrees []int, maxIter int, tol float64) (Product, float64, error) {
	lead := 0
	for k, d := range degrees {
		if d > degrees[lead] {
			lead = k
		}
	}
	return fitALS(samples, degrees, lead, maxIter, tol)
}

// fitALS is the one alternating-least-squares loop. Factor start begins as
// the least-squares fit of z in its own coordinate alone (all ones if that
// fit is zero), every other factor as the constant 1. Each sweep refits
// every factor in order by FitWeighted, weighting sample i by the product
// of the other factors there; sweeps stop when the RMS residual improves
// by less than tol (relative), or after maxIter (default 60). Every factor
// but the first is then scaled to unit max |coeff|, the first absorbing
// the scale.
func fitALS(samples []SampleN, degrees []int, start, maxIter int, tol float64) (Product, float64, error) {
	n := len(degrees)
	if n == 0 {
		return Product{}, 0, fmt.Errorf("poly: product fit with no factors: %w", ErrFit)
	}
	var params int
	for _, d := range degrees {
		params += d + 1
	}
	if len(samples) < params {
		return Product{}, 0, fmt.Errorf("poly: %d samples for product fit with %d parameters: %w", len(samples), params, ErrFit)
	}
	// cols[k][i] is sample i's k-th coordinate.
	cols := make([][]float64, n)
	for k := range cols {
		cols[k] = make([]float64, len(samples))
	}
	zs := make([]float64, len(samples))
	for i, s := range samples {
		if len(s.Xs) != n {
			return Product{}, 0, fmt.Errorf("poly: sample has %d coordinates, want %d: %w", len(s.Xs), n, ErrFit)
		}
		for k, x := range s.Xs {
			cols[k][i] = x
		}
		zs[i] = s.Z
	}
	if maxIter <= 0 {
		maxIter = 60
	}
	if tol <= 0 {
		tol = 1e-12
	}

	p := Product{Factors: make([]Polynomial, n)}
	for k := range p.Factors {
		p.Factors[k] = New(1)
	}
	f0, _, err := Fit(cols[start], zs, degrees[start])
	if err != nil {
		return Product{}, 0, err
	}
	if maxAbsCoeff(f0) == 0 {
		f0 = onesPoly(degrees[start])
	}
	p.Factors[start] = f0

	ws := make([]float64, len(samples))
	prev := math.Inf(1)
	var rms float64
	for iter := 0; iter < maxIter; iter++ {
		for k := range p.Factors {
			for i := range ws {
				ws[i] = p.evalExcept(cols, i, k)
			}
			f, _, err := FitWeighted(cols[k], ws, zs, degrees[k])
			if err != nil {
				return Product{}, 0, fmt.Errorf("poly: product factor %d: %w", k, err)
			}
			p.Factors[k] = f
		}
		var ss float64
		for i, z := range zs {
			d := p.evalExcept(cols, i, -1) - z
			ss += d * d
		}
		rms = math.Sqrt(ss / float64(len(zs)))
		if prev-rms < tol*math.Max(1, prev) {
			break
		}
		prev = rms
	}
	scale := 1.0
	for k := 1; k < n; k++ {
		if m := maxAbsCoeff(p.Factors[k]); m > 0 {
			p.Factors[k] = p.Factors[k].Scale(1 / m)
			scale *= m
		}
	}
	p.Factors[0] = p.Factors[0].Scale(scale)
	return p, rms, nil
}

// evalExcept is the product of every factor but factor skip at sample i
// of the coordinate columns; skip < 0 gives the whole product. It
// multiplies in factor order from 1.0, as Eval does.
func (p Product) evalExcept(cols [][]float64, i, skip int) float64 {
	out := 1.0
	for k, f := range p.Factors {
		if k != skip {
			out *= f.Eval(cols[k][i])
		}
	}
	return out
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
