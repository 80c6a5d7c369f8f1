package stats

import (
	"math"
)

// RMS returns the root-mean-square of xs: sqrt(mean(x²)). This is the metric
// the paper reports for model residuals (e.g. "RMS modeling error 0.88 mV").
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var ss float64
	for _, x := range xs {
		ss += x * x
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Accumulator is an online (Welford) accumulator for mean and variance,
// usable without retaining samples. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Mean returns the running mean (NaN if empty).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the unbiased running variance (NaN if n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the unbiased running standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("stats: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
