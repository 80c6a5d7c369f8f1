// Package quant implements INT4 post-training quantization in the style of
// TensorFlow Lite adapted from INT8 to INT4 (the paper's Section VI
// protocol): asymmetric uint4 activations, symmetric int4 weights,
// per-tensor scales, integer accumulation — with the scalar multiply
// pluggable so the in-SRAM multiplier corners can execute every
// multiplication of the network.
package quant

import (
	"fmt"
	"math"
	"sync/atomic"

	"optima/internal/mult"
	"optima/internal/stats"
)

// Quantization ranges.
const (
	ActBits   = 4
	ActMax    = 1<<ActBits - 1     // activations: uint4 codes 0..15
	WeightMax = 1<<(ActBits-1) - 1 // weights: symmetric int4 −7..7
)

// Multiplier is the scalar multiply used inside quantized conv/dense
// layers: activation code a ∈ [0, 15] times signed weight code
// w ∈ [−7, 7]. Implementations return the (possibly erroneous) product.
type Multiplier interface {
	Mul(a uint8, w int8) int32
}

// Exact computes the true integer product (the paper's "Baseline INT4").
type Exact struct{}

// Mul implements Multiplier.
func (Exact) Mul(a uint8, w int8) int32 { return int32(a) * int32(w) }

// InMemory replaces every multiplication with the in-SRAM multiplier model:
// the unsigned magnitude product is looked up in the corner's calibrated
// transfer table with per-operation Gaussian analog noise (mismatch Eq. 6
// plus readout noise), and the weight's sign is applied digitally, as in
// IMAC-style sign-magnitude designs.
type InMemory struct {
	// Mean[a][d] is the deterministic analog result in ADC LSBs (≈ a·d).
	Mean [mult.OperandMax + 1][WeightMax + 1]float64
	// Sigma[a][d] is the per-operation noise in LSBs.
	Sigma [mult.OperandMax + 1][WeightMax + 1]float64
	rng   *stats.RNG
	ops   atomic.Int64
}

// NewInMemory builds the lookup-table multiplier for one behavioral
// multiplier configuration. The RNG drives per-operation noise; a nil RNG
// yields the deterministic (mean) transfer.
func NewInMemory(b *mult.Behavioral, rng *stats.RNG) (*InMemory, error) {
	im := &InMemory{rng: rng}
	for a := uint(0); a <= mult.OperandMax; a++ {
		for d := uint(0); d <= WeightMax; d++ {
			r, err := b.MultiplyDet(a, d)
			if err != nil {
				return nil, fmt.Errorf("quant: LUT at (%d,%d): %w", a, d, err)
			}
			im.Mean[a][d] = (r.VComb - b.OffsetVolt) / b.LSBVolt
			im.Sigma[a][d] = math.Hypot(r.Sigma, mult.DefaultADCSigma) / b.LSBVolt
		}
	}
	return im, nil
}

// Ops returns the multiplications performed (Table II bookkeeping).
func (im *InMemory) Ops() int64 { return im.ops.Load() }

// Deterministic reports whether Mul uses the noise-free mean transfer
// (nil RNG) and is therefore safe for concurrent use.
func (im *InMemory) Deterministic() bool { return im.rng == nil }

// Mul implements Multiplier.
func (im *InMemory) Mul(a uint8, w int8) int32 {
	im.ops.Add(1)
	d := w
	neg := false
	if d < 0 {
		d = -d
		neg = true
	}
	mu := im.Mean[a][d]
	var v float64
	if im.rng != nil {
		v = im.rng.Gaussian(mu, im.Sigma[a][d])
	} else {
		v = mu
	}
	code := int32(math.Round(v))
	if code < 0 {
		code = 0
	}
	if code > mult.ADCMax {
		code = mult.ADCMax
	}
	if neg {
		return -code
	}
	return code
}

// ActQuant holds the affine activation quantization of one tensor:
// code = clamp(round(x/Scale) + Zero, 0, 15).
type ActQuant struct {
	Scale float64
	Zero  int32
}

// Quantize maps a real activation to its uint4 code.
func (q ActQuant) Quantize(x float64) uint8 {
	c := int32(math.Round(x/q.Scale)) + q.Zero
	if c < 0 {
		c = 0
	}
	if c > ActMax {
		c = ActMax
	}
	return uint8(c)
}

// calibrate derives the activation quantization from an observed range.
// Ranges that include zero keep zero exactly representable.
func calibrate(min, max float64) ActQuant {
	if min > 0 {
		min = 0
	}
	if max < min+1e-9 {
		max = min + 1e-9
	}
	scale := (max - min) / float64(ActMax)
	zero := int32(math.Round(-min / scale))
	if zero < 0 {
		zero = 0
	}
	if zero > ActMax {
		zero = ActMax
	}
	return ActQuant{Scale: scale, Zero: zero}
}

// WeightQuant is the symmetric per-tensor weight quantization.
type WeightQuant struct {
	Scale float64
	Codes []int8
}

// QuantizeWeights maps float weights to symmetric int4 codes.
func QuantizeWeights(w []float64) WeightQuant {
	var maxAbs float64
	for _, v := range w {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1e-9
	}
	scale := maxAbs / float64(WeightMax)
	codes := make([]int8, len(w))
	for i, v := range w {
		c := math.Round(v / scale)
		if c > WeightMax {
			c = WeightMax
		}
		if c < -WeightMax {
			c = -WeightMax
		}
		codes[i] = int8(c)
	}
	return WeightQuant{Scale: scale, Codes: codes}
}
