package mult

import (
	"fmt"

	"optima/internal/core"
	"optima/internal/device"
)

// The paper identifies the quadratic word-line-to-discharge transfer as a
// core error source and cites the nonlinear DAC of AID [15] as a potential
// solution, "even though its practical circuit implementation poses
// significant challenges". This file implements that extension on top of
// the behavioral models: each of the 16 DAC levels is trimmed so that the
// modeled discharge becomes proportional to the input code.

// NonlinearDAC holds per-code trimmed word-line voltages for one multiplier
// configuration.
type NonlinearDAC struct {
	// Levels[a] is the trimmed output voltage for input code a [V].
	Levels [OperandMax + 1]float64
}

// CalibrateNonlinearDAC solves for DAC levels that linearize the discharge
// transfer of the given configuration at the nominal condition:
//
//	ΔV(τ0, V_a) = (a/15) · ΔV(τ0, V_DAC,FS)
//
// by bisection on the calibrated discharge model. The endpoints remain
// V_DAC,0 (code 0) and V_DAC,FS (code 15) — only the interior codes move.
//
//lint:ignore unusedapi the root bench_test.go's BenchmarkAblationNonlinearDAC (AID's DAC) calibrates it
func CalibrateNonlinearDAC(model *core.Model, cfg Config) (*NonlinearDAC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cond := device.Nominal()
	const tRef = 1e-9 // reference discharge window for the trim
	full := model.Discharge.DeltaV(tRef, cfg.VDACFS, cond.VDD, cond.TempC)
	if full <= 0 {
		return nil, fmt.Errorf("mult: nonlinear DAC: %w", ErrScale)
	}
	dac := &NonlinearDAC{}
	dac.Levels[0] = cfg.VDAC0
	dac.Levels[OperandMax] = cfg.VDACFS
	for a := 1; a < OperandMax; a++ {
		// Linearize through zero: the discharge of code a must be a/15 of
		// full scale, so products become exactly proportional to a·d (the
		// residual zero-code offset of V_DAC,0 stays, as in the real DAC).
		target := full * float64(a) / float64(OperandMax)
		lo, hi := cfg.VDAC0, cfg.VDACFS
		for i := 0; i < 50; i++ {
			mid := (lo + hi) / 2
			if model.Discharge.DeltaV(tRef, mid, cond.VDD, cond.TempC) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		dac.Levels[a] = (lo + hi) / 2
	}
	return dac, nil
}

// Voltage returns the trimmed word-line voltage for code a at the given
// supply (same partial supply tracking as the linear DAC).
func (d *NonlinearDAC) Voltage(a uint, vdd float64) float64 {
	return core.SupplyScaledVWL(d.Levels[a], vdd)
}

// WithNonlinearDAC returns a copy of the behavioral multiplier that drives
// the word line through the trimmed DAC and re-calibrates the ADC trim for
// the linearized transfer.
//
//lint:ignore unusedapi the root bench_test.go's BenchmarkAblationNonlinearDAC (AID's DAC) drives it
func (b *Behavioral) WithNonlinearDAC(dac *NonlinearDAC) (*Behavioral, error) {
	nl := *b
	nl.DAC = dac
	// The copied trim and det table were built for the linear DAC's
	// word-line voltages; redo both for the trimmed levels.
	if err := nl.calibrate(); err != nil {
		return nil, fmt.Errorf("mult: nonlinear DAC trim: %w", err)
	}
	return &nl, nil
}

// wordLineVoltage resolves the word-line voltage for input code a through
// either the linear configuration mapping or the trimmed DAC.
func (b *Behavioral) wordLineVoltage(a uint, vdd float64) float64 {
	if b.DAC != nil {
		return b.DAC.Voltage(a, vdd)
	}
	return b.Cfg.DACVoltage(a, vdd)
}
