package mult

import (
	"fmt"
	"math"

	"optima/internal/stats"
)

// The original IMAC design [8] accumulates several multiplications in the
// analog domain before a single ADC conversion; the paper "omits the analog
// accumulation step ... and concentrates on the multiplication process".
// This file restores that step as an extension: a dot-product unit that
// charge-shares the sampled discharges of K words before one conversion,
// amortizing the ADC and averaging uncorrelated mismatch.

// accADCBits is the accumulation ADC resolution: the result range grows to
// K·225, so the unit uses a wider converter than the multiplier's.
const accADCBits = 12

// DotProduct computes y = Σ_k a_k · d_k over K operand pairs in a single
// analog accumulation window on the behavioral multiplier.
type DotProduct struct {
	B *Behavioral
}

// NewDotProduct wraps a behavioral multiplier into an accumulation unit.
//
//lint:ignore unusedapi the root bench_test.go's BenchmarkAblationAnalogAccumulation (IMAC's accumulation step) builds it
func NewDotProduct(b *Behavioral) *DotProduct {
	return &DotProduct{B: b}
}

// DotResult is the outcome of one analog dot product.
type DotResult struct {
	Expected int
	Code     int
	// VAcc is the accumulated (averaged) analog voltage [V].
	VAcc float64
	// Sigma is the mismatch std of VAcc [V].
	Sigma float64
	// Energy covers all bit-line recharges plus one conversion [J].
	Energy float64
	// K is the number of accumulated products.
	K int
}

// Compute runs the dot product of equal-length code vectors. A nil rng
// gives the deterministic result. The accumulation is a charge share of
// the K per-word combined voltages: V_acc = (1/K)·Σ V_comb,k, quantized
// with the multiplier's LSB scaled by 1/K so codes remain in product units.
// K is limited to what the accumulation ADC holds at full scale
// (K·ProductMax ≤ 2^accADCBits − 1, so K ≤ 18): a longer vector would clip.
//
//lint:ignore unusedapi the root bench_test.go's BenchmarkAblationAnalogAccumulation (IMAC's accumulation step) runs it
func (dp *DotProduct) Compute(as, ds []uint, rng *stats.RNG) (DotResult, error) {
	if len(as) != len(ds) || len(as) == 0 {
		return DotResult{}, fmt.Errorf("mult: dot product needs equal non-empty vectors, got %d and %d", len(as), len(ds))
	}
	k := len(as)
	const maxCode = 1<<accADCBits - 1
	if k*ProductMax > maxCode {
		return DotResult{}, fmt.Errorf("mult: %d products exceed the %d-bit accumulation range", k, accADCBits)
	}
	res := DotResult{K: k}
	var sumV, varV float64
	for i := range as {
		a, d := as[i], ds[i]
		if a > OperandMax || d > OperandMax {
			return DotResult{}, fmt.Errorf("mult: operands (%d,%d) exceed %d bits", a, d, OperandBits)
		}
		res.Expected += int(a * d)
		cond := dp.B.Cond
		vwl := dp.B.wordLineVoltage(a, cond.VDD)
		for bit := 0; bit < OperandBits; bit++ {
			if d&(1<<uint(bit)) == 0 {
				continue
			}
			dv, sig, energy := dp.B.bit(bit, vwl, cond, rng)
			sumV += dv
			varV += sig * sig
			res.Energy += energy
		}
		// Per-word DAC drive; the conversion is shared.
		res.Energy += DefaultDACCap * cond.VDD * vwl
	}
	res.Energy += DefaultADCEnergy + DefaultCtrlEnergy
	// Charge share across K·4 sampling caps.
	res.VAcc = sumV / float64(k*OperandBits)
	res.Sigma = math.Sqrt(varV) / float64(k*OperandBits)
	// Quantize in product units: V_acc·K/LSB recovers the summed code (the
	// per-product step shrinks by 1/K on the shared caps, which is why the
	// accumulation ADC needs the wider range). The per-word trim offsets
	// accumulate like the signal.
	v := res.VAcc
	if rng != nil {
		v = rng.Gaussian(v, DefaultADCSigma)
	}
	code := int(math.Round((v*float64(k) - float64(k)*dp.B.OffsetVolt) / dp.B.LSBVolt))
	if code < 0 {
		code = 0
	}
	if code > maxCode {
		code = maxCode
	}
	res.Code = code
	return res, nil
}
