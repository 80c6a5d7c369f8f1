package spice

import (
	"fmt"
	"sort"
)

// Waveform stores sampled node voltages over time.
type Waveform struct {
	T []float64   // sample times [s], strictly increasing
	V [][]float64 // V[i] is the state vector at T[i]
	n int         // nodes per sample
}

// NewWaveform returns an empty waveform for n nodes.
func NewWaveform(n int) *Waveform {
	return &Waveform{n: n}
}

// Len returns the number of samples.
func (w *Waveform) Len() int { return len(w.T) }

// Append records a sample; the state is copied.
func (w *Waveform) Append(t float64, v []float64) {
	if len(v) != w.n {
		panic(fmt.Sprintf("spice: waveform append with %d nodes, want %d", len(v), w.n))
	}
	if len(w.T) > 0 && t <= w.T[len(w.T)-1] {
		// Replace a duplicate endpoint rather than violating monotonicity.
		if t == w.T[len(w.T)-1] {
			copy(w.V[len(w.V)-1], v)
			return
		}
		panic(fmt.Sprintf("spice: waveform time %g not increasing (last %g)", t, w.T[len(w.T)-1]))
	}
	w.T = append(w.T, t)
	cp := make([]float64, w.n)
	copy(cp, v)
	w.V = append(w.V, cp)
}

// At returns the linearly interpolated state at time t. Times outside the
// recorded range clamp to the endpoints.
func (w *Waveform) At(t float64) []float64 {
	out := make([]float64, w.n)
	if len(w.T) == 0 {
		return out
	}
	if t <= w.T[0] {
		copy(out, w.V[0])
		return out
	}
	last := len(w.T) - 1
	if t >= w.T[last] {
		copy(out, w.V[last])
		return out
	}
	hi := sort.SearchFloat64s(w.T, t)
	lo := hi - 1
	for i := 0; i < w.n; i++ {
		out[i] = lerp(t, w.T[lo], w.T[hi], w.V[lo][i], w.V[hi][i])
	}
	return out
}

// lerp interpolates linearly between (t0, v0) and (t1, v1) at t: the one
// expression Waveform.At and Trajectories.Samples read with.
func lerp(t, t0, t1, v0, v1 float64) float64 {
	f := (t - t0) / (t1 - t0)
	return v0*(1-f) + v1*f
}

// NodeAt returns the interpolated voltage of node i at time t.
func (w *Waveform) NodeAt(i int, t float64) float64 {
	return w.At(t)[i]
}

// Final returns the last recorded state.
func (w *Waveform) Final() []float64 {
	if len(w.V) == 0 {
		return make([]float64, w.n)
	}
	out := make([]float64, w.n)
	copy(out, w.V[len(w.V)-1])
	return out
}
