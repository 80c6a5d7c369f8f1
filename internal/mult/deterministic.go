package mult

import (
	"fmt"

	"optima/internal/device"
)

// Deterministic fast path of the behavioral multiplier.
//
// The mismatch-free transfer of one configuration at one condition is tiny:
// the per-bit discharge depends on (a, i) only — the stored operand d
// selects which bit lines participate, it never changes what one bit line
// does — so the whole 16×16 input space reduces to 16×4 distinct
// discharges. A detTable precomputes exactly the model outputs Multiply's
// per-bit loop would request at the sampling instants (VBL, SigmaAt,
// DischargeEnergy per set bit), letting MultiplyDet evaluate one
// multiplication with plain table reads and the same float operations in
// the same order as Multiply — byte-identical Results (pinned by
// TestMultiplyDetMatchesMultiply) without the per-call model evaluations.
//
// The engine's Behavioral backend and the DNN LUT builder ride this path.
// Multiply calls the models per multiplication; it serves mismatch
// sampling, the paper's speed-up experiments (which time exactly those
// calls) and Fig. 8's error profile.

// detTable holds the deterministic per-(a, bit) model outputs of one
// configuration at one condition.
type detTable struct {
	vdd, tempC float64 // condition the table was built for
	// vwl[a] is the word-line voltage for input code a.
	vwl [OperandMax + 1]float64
	// dv[a][i] is the clamped discharge of bit line i under code a.
	dv [OperandMax + 1][OperandBits]float64
	// sigma[a][i] is the analytic mismatch std of that discharge.
	sigma [OperandMax + 1][OperandBits]float64
	// energy[a][i] is the bit line's recharge energy when its d-bit is set.
	energy [OperandMax + 1][OperandBits]float64
}

// buildDetTable evaluates the models over the 16×4 (code, bit) grid at the
// given condition. It depends only on the multiplier's configuration, DAC
// and models — not on the ADC trim — so it can be built before calibration
// and reused by it.
func (b *Behavioral) buildDetTable(cond device.PVT) *detTable {
	t := &detTable{vdd: cond.VDD, tempC: cond.TempC}
	for a := uint(0); a <= OperandMax; a++ {
		vwl := b.wordLineVoltage(a, cond.VDD)
		t.vwl[a] = vwl
		for i := 0; i < OperandBits; i++ {
			t.dv[a][i], t.sigma[a][i], t.energy[a][i] = b.bit(i, vwl, cond, nil)
		}
	}
	return t
}

// combined returns the deterministic charge-shared discharge for operands
// (a, d) from the table — the same value, computed by the same operations
// in the same order, as a nil-RNG multiplication's VComb.
func (t *detTable) combined(a, d uint) float64 {
	var sum float64
	for i := 0; i < OperandBits; i++ {
		if d&(1<<uint(i)) != 0 {
			sum += t.dv[a][i]
		}
	}
	return sum / OperandBits
}

// detFor returns the multiplier's precomputed table when it matches the
// current condition, or nil when the caller must fall back to direct model
// evaluation (zero-value Behavioral, or Cond mutated after construction).
func (b *Behavioral) detFor() *detTable {
	if t := b.det; t != nil && t.vdd == b.Cond.VDD && t.tempC == b.Cond.TempC {
		return t
	}
	return nil
}

// MultiplyDet performs one deterministic (mismatch-free) multiplication on
// the precomputed table. It returns exactly the Result of
// Multiply(a, d, nil) — the engine's metric accumulation and the DNN LUT
// are built on this equivalence — without the per-call model evaluations.
func (b *Behavioral) MultiplyDet(a, d uint) (Result, error) {
	if a > OperandMax || d > OperandMax {
		return Result{}, fmt.Errorf("mult: operands (%d,%d) exceed %d bits", a, d, OperandBits)
	}
	t := b.detFor()
	if t == nil {
		return b.Multiply(a, d, nil)
	}
	res := Result{A: a, D: d, Expected: int(a * d)}
	for i := 0; i < OperandBits; i++ {
		if d&(1<<uint(i)) != 0 {
			res.add(i, t.dv[a][i], t.sigma[a][i], t.energy[a][i])
		}
	}
	res.finish(b, t.vwl[a], nil)
	return res, nil
}
