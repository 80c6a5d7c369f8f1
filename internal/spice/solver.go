// Package spice is the golden reference simulator of the repository: a
// small transient nodal simulator that integrates the analog differential
// equations of the SRAM discharge and write circuits. It stands in for the
// Cadence Virtuoso + TSMC 65 nm flow the paper uses to generate calibration
// data and to benchmark OPTIMA's speed-up against.
//
// The solver is an adaptive Cash–Karp Runge–Kutta (RK45) integrator over
// explicit capacitor-node ODE systems. It is deliberately a "slow but
// trustworthy" reference: every device evaluation goes through the full
// EKV expressions in package device, and the step controller resolves the
// fast internal-node dynamics of the two-transistor discharge stack.
package spice

import (
	"errors"
	"fmt"
	"math"
)

// System is an explicit ODE system dv/dt = f(t, v) over circuit node
// voltages.
type System interface {
	// Dim returns the number of state variables (circuit nodes).
	Dim() int
	// Derivatives writes f(t, v) into dv. len(v) == len(dv) == Dim().
	Derivatives(t float64, v, dv []float64)
}

// PowerMeter is optionally implemented by systems that can report the
// instantaneous current drawn from the supply, enabling energy integration.
type PowerMeter interface {
	// SupplyCurrent returns the current drawn from VDD at state (t, v) [A].
	SupplyCurrent(t float64, v []float64) float64
}

// Config controls the adaptive integrator.
type Config struct {
	AbsTol   float64 // absolute error tolerance per step [V]
	RelTol   float64 // relative error tolerance per step
	InitStep float64 // initial step size [s]
	MinStep  float64 // smallest allowed step [s]
	MaxStep  float64 // largest allowed step [s]
	MaxSteps int     // safety limit on accepted+rejected steps
}

// DefaultConfig returns tolerances suited to bit-line transients
// (nanosecond windows, sub-millivolt accuracy targets).
func DefaultConfig() Config {
	return Config{
		AbsTol:   20e-6,
		RelTol:   1e-6,
		InitStep: 1e-12,
		MinStep:  1e-18,
		MaxStep:  20e-12,
		MaxSteps: 4_000_000,
	}
}

// ErrStep is returned when the step controller cannot meet the tolerances.
var ErrStep = errors.New("spice: step size underflow")

// ErrSteps is returned when MaxSteps is exceeded.
var ErrSteps = errors.New("spice: step budget exhausted")

// ErrNonFinite is returned when a step's trial state is NaN or infinite
// (a NaN or ±Inf stage derivative). Such a step has no error estimate to
// reject it by, so the transient fails instead of carrying the value on.
var ErrNonFinite = errors.New("spice: non-finite state")

// Result holds the outcome of a transient analysis.
type Result struct {
	Waveform *Waveform
	// SupplyEnergy is ∫ VDD·I_VDD dt over the run if the system implements
	// PowerMeter (0 otherwise) [J].
	SupplyEnergy float64
	// Steps is the number of accepted integration steps.
	Steps int
	// DeviceEvals counts right-hand-side evaluations (6 per attempted step),
	// the cost unit for the speed-up comparison against behavioral models.
	DeviceEvals int
}

// Cash–Karp tableau.
var (
	ckA = [6]float64{0, 1.0 / 5, 3.0 / 10, 3.0 / 5, 1, 7.0 / 8}
	ckB = [6][5]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{3.0 / 10, -9.0 / 10, 6.0 / 5},
		{-11.0 / 54, 5.0 / 2, -70.0 / 27, 35.0 / 27},
		{1631.0 / 55296, 175.0 / 512, 575.0 / 13824, 44275.0 / 110592, 253.0 / 4096},
	}
	ckC  = [6]float64{37.0 / 378, 0, 250.0 / 621, 125.0 / 594, 0, 512.0 / 1771}
	ckCs = [6]float64{2825.0 / 27648, 0, 18575.0 / 48384, 13525.0 / 55296, 277.0 / 14336, 1.0 / 4}
)

// Scratch holds the integrator's per-run work buffers (six stage vectors
// plus the trial states). A transient that is handed a Scratch reuses its
// buffers instead of allocating fresh ones, which matters when one worker
// runs hundreds of short transients back to back (the golden multiplier's
// input-space sweep). A Scratch serves one goroutine at a time; give each
// worker its own. The zero value is ready to use.
type Scratch struct {
	k            [6][]float64
	vtmp, v5, v4 []float64
}

// buffers returns the work vectors sized for dim state variables, growing
// the backing arrays on first use (or when a larger system comes along).
func (s *Scratch) buffers(dim int) (k [6][]float64, vtmp, v5, v4 []float64) {
	if len(s.vtmp) < dim {
		for i := range s.k {
			s.k[i] = make([]float64, dim)
		}
		s.vtmp = make([]float64, dim)
		s.v5 = make([]float64, dim)
		s.v4 = make([]float64, dim)
	}
	for i := range s.k {
		k[i] = s.k[i][:dim]
	}
	return k, s.vtmp[:dim], s.v5[:dim], s.v4[:dim]
}

// Transient integrates sys from t0 to t1 starting at state v0 and returns
// the sampled waveform. vdd is used for supply-energy integration when the
// system implements PowerMeter. sampleEvery > 0 records the state at that
// interval (plus both endpoints); sampleEvery == 0 records every accepted
// step.
func Transient(sys System, v0 []float64, t0, t1 float64, vdd float64, cfg Config, sampleEvery float64) (*Result, error) {
	return TransientScratch(sys, v0, t0, t1, vdd, cfg, sampleEvery, nil)
}

// TransientScratch is Transient with caller-owned work buffers; a nil scr
// allocates per call (identical to Transient).
func TransientScratch(sys System, v0 []float64, t0, t1 float64, vdd float64, cfg Config, sampleEvery float64, scr *Scratch) (*Result, error) {
	dim := sys.Dim()
	if len(v0) != dim {
		return nil, fmt.Errorf("spice: initial state has %d entries, want %d", len(v0), dim)
	}
	if !(t1 > t0) {
		return nil, fmt.Errorf("spice: empty time window [%g, %g]", t0, t1)
	}
	if cfg.MaxSteps <= 0 {
		cfg = DefaultConfig()
	}

	v := append([]float64(nil), v0...)
	t := t0
	h := cfg.InitStep
	if h <= 0 {
		h = (t1 - t0) / 1000
	}

	wf := NewWaveform(dim)
	wf.Append(t, v)
	nextSample := t0 + sampleEvery

	pm, hasPM := sys.(PowerMeter)
	var energy float64
	lastI := 0.0
	if hasPM {
		lastI = pm.SupplyCurrent(t, v)
	}
	lastT := t

	if scr == nil {
		scr = &Scratch{}
	}
	k, vtmp, v5, v4 := scr.buffers(dim)

	res := &Result{Waveform: wf}
	for t < t1 {
		if res.Steps+1 > cfg.MaxSteps {
			return res, fmt.Errorf("spice: %d steps at t=%.3g s: %w", res.Steps, t, ErrSteps)
		}
		if t+h > t1 {
			h = t1 - t
		}
		// Stage evaluations.
		sys.Derivatives(t, v, k[0])
		for s := 1; s < 6; s++ {
			for i := 0; i < dim; i++ {
				acc := v[i]
				for j := 0; j < s; j++ {
					acc += h * ckB[s][j] * k[j][i]
				}
				vtmp[i] = acc
			}
			sys.Derivatives(t+ckA[s]*h, vtmp, k[s])
		}
		res.DeviceEvals += 6
		// 5th and embedded 4th order solutions.
		var errMax float64
		for i := 0; i < dim; i++ {
			var s5, s4 float64
			for s := 0; s < 6; s++ {
				s5 += ckC[s] * k[s][i]
				s4 += ckCs[s] * k[s][i]
			}
			v5[i] = v[i] + h*s5
			v4[i] = v[i] + h*s4
			scale := cfg.AbsTol + cfg.RelTol*math.Max(math.Abs(v[i]), math.Abs(v5[i]))
			e := math.Abs(v5[i]-v4[i]) / scale
			if e > errMax {
				errMax = e
			} else if math.IsNaN(e) {
				// A non-finite v5 or v4 makes e NaN, and a NaN never
				// exceeds errMax, so the step would be accepted.
				return res, fmt.Errorf("spice: node %d at t=%.3g s, step %g s: %w", i, t, h, ErrNonFinite)
			}
		}
		if errMax <= 1 {
			// Accept.
			t += h
			copy(v, v5)
			res.Steps++
			if hasPM {
				i1 := pm.SupplyCurrent(t, v)
				energy += vdd * 0.5 * (lastI + i1) * (t - lastT)
				lastI = i1
				lastT = t
			}
			if sampleEvery <= 0 {
				wf.Append(t, v)
			} else if t+1e-21 >= nextSample || t >= t1 {
				wf.Append(t, v)
				for nextSample <= t {
					nextSample += sampleEvery
				}
			}
		}
		// Step-size update (standard PI-free controller with safety factor).
		if errMax == 0 {
			h *= 5
		} else {
			factor := 0.9 * math.Pow(errMax, -0.2)
			if factor > 5 {
				factor = 5
			}
			if factor < 0.1 {
				factor = 0.1
			}
			h *= factor
		}
		if h > cfg.MaxStep {
			h = cfg.MaxStep
		}
		if h < cfg.MinStep {
			return res, fmt.Errorf("spice: step %g s below minimum at t=%g s: %w", h, t, ErrStep)
		}
	}
	if wf.Len() == 0 || wf.T[wf.Len()-1] < t1 {
		wf.Append(t, v)
	}
	res.SupplyEnergy = energy
	return res, nil
}
