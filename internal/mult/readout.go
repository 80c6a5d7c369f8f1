package mult

import (
	"fmt"
	"math"

	"optima/internal/device"
	"optima/internal/stats"
)

// One transfer table and one readout serve every product path. With
// matched cells a bit line's discharge depends on (a, i) only — d selects
// which bit lines take part, never what one does — so one condition's
// 16×16 input space reduces to 16×4 discharges, one row per input code.
// Each backend fills rows its own way (Behavioral.fill from the models,
// Golden.fill from transients); readout composes a·d from row a. Multiply
// and MultiplyCells fill a row per call, MultiplyDet and
// GoldenTable.Multiply read a table filled once, and both ADC trims fit a
// table of the nominal transfer.

// row is one input code's transfer at one condition: the word-line voltage
// and, per bit line, the clamped discharge at sampling, its analytic
// mismatch σ (0 on the golden backend) and its recharge energy.
type row struct {
	vwl               float64
	dv, sigma, energy [OperandBits]float64
}

// table is one multiplier's matched-cell transfer at one condition.
type table [OperandMax + 1]row

// vcomb is the charge share of d's set bit lines on equal sampling
// capacitors: their ΔV, summed in bit order, over OperandBits.
func (r *row) vcomb(d uint) float64 {
	var sum float64
	for i := 0; i < OperandBits; i++ {
		if d&(1<<uint(i)) != 0 {
			sum += r.dv[i]
		}
	}
	return sum / OperandBits
}

// readout composes the product of res.D's set bit lines into res: their
// sampled ΔV, the charge-shared VComb and its σ, the ADC code on the
// trimmed scale lsb (with input noise when rng is non-nil), and the energy —
// the bit lines' recharge plus the peripheral DAC drive at supply vdd,
// conversion and control. It writes in place so that a hot loop copies no
// Result.
func (r *row) readout(res *Result, vdd, lsb float64, rng *stats.RNG) {
	d := res.D
	var sigSq, energy float64
	for i := 0; i < OperandBits; i++ {
		if d&(1<<uint(i)) != 0 {
			res.DeltaV[i] = r.dv[i]
			sigSq += r.sigma[i] * r.sigma[i]
			energy += r.energy[i]
		}
	}
	res.VComb = r.vcomb(d)
	res.Sigma = math.Sqrt(sigSq) / OperandBits
	v := res.VComb
	if rng != nil {
		v = rng.Gaussian(v, DefaultADCSigma)
	}
	res.Code = min(max(int(math.Round(v/lsb)), 0), ADCMax)
	res.Energy = energy + (DefaultDACCap*vdd*r.vwl + DefaultADCEnergy + DefaultCtrlEnergy)
}

// discharged is a bit line's discharge at sampling, ΔV = VDD − V_BL,
// clamped at zero.
func discharged(vdd, vbl float64) float64 {
	dv := vdd - vbl
	if dv < 0 {
		return 0
	}
	return dv
}

// fitADCTrim fits the zero-anchored least-squares gain VComb ≈ gain·(a·d)
// over the full 16×16 input space of a nominal transfer table. The zero
// anchor keeps zero products exactly representable (essential for DNN
// workloads, where zero activations dominate); the gain minimizes the
// integral nonlinearity over the remaining codes.
func fitADCTrim(t *table) (float64, error) {
	var sumXX, sumXY float64
	for a := uint(0); a <= OperandMax; a++ {
		for d := uint(0); d <= OperandMax; d++ {
			x := float64(a * d)
			y := t[a].vcomb(d)
			sumXX += x * x
			sumXY += x * y
		}
	}
	gain := sumXY / sumXX
	// A non-finite gain (an overflowing or NaN transfer) would quantize
	// every product to a NaN metric, so it is as unusable as a zero one.
	if !(gain > 0) || math.IsInf(gain, 1) {
		return 0, ErrScale
	}
	return gain, nil
}

// transfer evaluates the models over the 16×4 (code, bit) grid at cond:
// exactly the outputs Multiply's per-bit step requests at the sampling
// instants. It depends on the models, configuration and DAC but not on the
// ADC trim, so the trim fit reads it too.
func (b *Behavioral) transfer(cond device.PVT) *table {
	t := new(table)
	for a := range t {
		b.fill(&t[a], uint(a), OperandMax, cond, nil)
	}
	return t
}

// MultiplyDet performs one deterministic (mismatch-free) multiplication on
// the table NewBehavioral built. It returns exactly the Result of
// Multiply(a, d, nil) — the engine's metric accumulation and the DNN LUT
// are built on this equivalence — without the per-call model evaluations.
func (b *Behavioral) MultiplyDet(a, d uint) (Result, error) {
	if a > OperandMax || d > OperandMax {
		return Result{}, fmt.Errorf("mult: operands (%d,%d) exceed %d bits", a, d, OperandBits)
	}
	res := Result{A: a, D: d, Expected: int(a * d)}
	b.det[a].readout(&res, b.cond.VDD, b.LSBVolt, nil)
	return res, nil
}
