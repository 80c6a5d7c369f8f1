package dse

import (
	"fmt"
	"math"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/spice"
	"optima/internal/stats"
)

// ResultProfile is the Fig. 8 (left) analysis: average error and analog
// standard deviation as functions of the expected result, for one corner.
type ResultProfile struct {
	Config mult.Config
	// Expected lists the distinct products a·d in ascending order.
	Expected []int
	// AvgError[i] is the mean expected |error| in LSBs over the input pairs
	// whose product is Expected[i].
	AvgError []float64
	// SigmaLSB[i] is the RMS analog standard deviation in LSBs over the
	// same pairs.
	SigmaLSB []float64
}

// ProfileByResult computes the per-expected-result error and σ profile of a
// corner at the given condition (paper Fig. 8, left).
func ProfileByResult(model *core.Model, cfg mult.Config, cond device.PVT) (ResultProfile, error) {
	b, err := mult.NewBehavioral(model, cfg, cond)
	if err != nil {
		return ResultProfile{}, err
	}
	type acc struct {
		err   stats.Accumulator
		sigSq stats.Accumulator
	}
	groups := make(map[int]*acc)
	for a := uint(0); a <= mult.OperandMax; a++ {
		for d := uint(0); d <= mult.OperandMax; d++ {
			r, err := b.Multiply(a, d, nil)
			if err != nil {
				return ResultProfile{}, err
			}
			g := groups[r.Expected]
			if g == nil {
				g = &acc{}
				groups[r.Expected] = g
			}
			sigma := math.Hypot(r.Sigma, mult.DefaultADCSigma)
			g.err.Add(engine.ExpectedAbsError(r.VComb-b.OffsetVolt, sigma, b.LSBVolt, r.Expected))
			g.sigSq.Add(r.Sigma * r.Sigma)
		}
	}
	prof := ResultProfile{Config: cfg}
	for k := 0; k <= mult.ProductMax; k++ {
		g, ok := groups[k]
		if !ok {
			continue
		}
		prof.Expected = append(prof.Expected, k)
		prof.AvgError = append(prof.AvgError, g.err.Mean())
		prof.SigmaLSB = append(prof.SigmaLSB, math.Sqrt(g.sigSq.Mean())/b.LSBVolt)
	}
	return prof, nil
}

// ConditionSweep is the Fig. 8 (right) analysis: average error of a corner
// as a function of supply voltage or temperature.
type ConditionSweep struct {
	Config mult.Config
	// X holds the swept variable values (VDD [V] or temperature [°C]).
	X []float64
	// AvgError[i] is ϵ_mul at X[i].
	AvgError []float64
	// AvgEnergy[i] is E_mul [J] at X[i].
	AvgEnergy []float64
}

// SweepVDD evaluates ϵ_mul over a supply range at nominal temperature
// through the given engine (paper Fig. 8 right, top). It is a thin view
// over the cross-condition matrix path: one batch spans the whole sweep.
func SweepVDD(eng *engine.Engine, cfg mult.Config, vdds []float64) (ConditionSweep, error) {
	conds := make([]device.PVT, len(vdds))
	for i, vdd := range vdds {
		conds[i] = device.PVT{Corner: device.CornerTT, VDD: vdd, TempC: device.NominalTempC}
	}
	return conditionSweep(eng, cfg, "VDD", vdds, conds)
}

// SweepTemp evaluates ϵ_mul over a temperature range at nominal supply
// through the given engine (paper Fig. 8 right, bottom), as a matrix view
// like SweepVDD.
func SweepTemp(eng *engine.Engine, cfg mult.Config, temps []float64) (ConditionSweep, error) {
	conds := make([]device.PVT, len(temps))
	for i, tc := range temps {
		conds[i] = device.PVT{Corner: device.CornerTT, VDD: device.NominalVDD, TempC: tc}
	}
	return conditionSweep(eng, cfg, "temperature", temps, conds)
}

// conditionSweep evaluates cfg across the conditions via the engine's
// matrix path and collects the error/energy curves in sweep order. A
// failing point is named: the error identifies the swept variable and the
// exact value (the engine error additionally carries the full condition),
// so a 9-point supply sweep never fails with a bare corner error. An
// empty point list returns an empty sweep; a duplicated point is an error
// (NewConditionSet rejects duplicates — a repeated excursion point is a
// caller bug, not a curve).
func conditionSweep(eng *engine.Engine, cfg mult.Config, what string, xs []float64, conds []device.PVT) (ConditionSweep, error) {
	if len(conds) == 0 {
		return ConditionSweep{Config: cfg}, nil
	}
	set, err := engine.NewConditionSet(conds...)
	if err != nil {
		return ConditionSweep{}, fmt.Errorf("dse: %s sweep of %v: %w", what, cfg, err)
	}
	mat, err := eng.EvaluateMatrix([]mult.Config{cfg}, set)
	if err != nil {
		return ConditionSweep{}, fmt.Errorf("dse: %s sweep of %v failed (%s points %v): %w", what, cfg, what, xs, err)
	}
	out := ConditionSweep{Config: cfg}
	for i, met := range mat.Row(0) {
		out.X = append(out.X, xs[i])
		out.AvgError = append(out.AvgError, met.EpsMul)
		out.AvgEnergy = append(out.AvgEnergy, met.EMul)
	}
	return out, nil
}

// CornerCheck quantifies the global-process-corner sensitivity of one
// configuration using the golden backend (the behavioral model, like the
// paper's, carries process variation only statistically via Eq. 6 — global
// FF/SS shifts are outside its domain, which is exactly what this check
// measures). For each corner it runs the full golden input space and
// reports the mean |error| in LSBs of the TT-trimmed readout.
type CornerCheck struct {
	Config  mult.Config
	Corners []device.ProcessCorner
	// AvgError[i] is the golden mean |error| at Corners[i] [LSB].
	AvgError []float64
	// Transients counts golden simulations run.
	Transients int
}

// GoldenCornerCheck runs the corner sensitivity analysis. It is golden-
// simulation bound: the 16 trim transients plus one matched-cell
// mult.GoldenTable (64 transients) per corner, 208 for three corners.
func GoldenCornerCheck(tech device.Tech, cfg mult.Config, scfg spice.Config) (CornerCheck, error) {
	out := CornerCheck{Config: cfg, Corners: device.Corners()}
	trim, err := mult.CalibrateGoldenTrim(tech, cfg, scfg)
	if err != nil {
		return CornerCheck{}, err
	}
	out.Transients += trim.Transients
	for _, corner := range out.Corners {
		cond := device.PVT{Corner: corner, VDD: device.NominalVDD, TempC: device.NominalTempC}
		g, err := mult.NewGoldenWithTrim(tech, cfg, cond, scfg, trim)
		if err != nil {
			return CornerCheck{}, err
		}
		table, err := g.Table(1)
		if err != nil {
			return CornerCheck{}, err
		}
		out.Transients += mult.TableTransients
		var acc stats.Accumulator
		for a := uint(0); a <= mult.OperandMax; a++ {
			for d := uint(0); d <= mult.OperandMax; d++ {
				r, err := table.Multiply(a, d)
				if err != nil {
					return CornerCheck{}, err
				}
				e := r.ErrorLSB()
				if e < 0 {
					e = -e
				}
				acc.Add(float64(e))
			}
		}
		out.AvgError = append(out.AvgError, acc.Mean())
	}
	return out, nil
}
