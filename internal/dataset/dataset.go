// Package dataset generates the procedural synthetic image classification
// datasets that substitute for ImageNet and CIFAR-10: neither can ship with
// this repository, and the reproduction runs offline.
//
// Each class is defined by a randomly drawn prototype — a parametric
// composition of an oriented sinusoidal texture, a colored blob and a color
// gradient — and samples are drawn by jittering the prototype's parameters,
// translating it, and adding pixel noise. The two dataset flavours mirror
// the paper's experimental contrast:
//
//   - SynthImageNet: more classes (20), the "pretraining" task.
//   - SynthCIFAR: 10 classes drawn from an independent prototype family,
//     used for the transfer-learning experiment (Table III).
//
// Generation is fully deterministic given the seed.
package dataset

import (
	"fmt"
	"math"

	"optima/internal/dnn"
	"optima/internal/stats"
)

// Image dimensions shared by both datasets (transfer learning requires
// matching input shapes, as in the paper's ImageNet→CIFAR protocol).
const (
	Channels = 3
	Height   = 12
	Width    = 12
)

// Dataset is a labeled image set split into train and test halves.
type Dataset struct {
	Name    string
	Classes int
	Train   *dnn.Tensor
	TrainY  []int
	Test    *dnn.Tensor
	TestY   []int
}

// prototype holds the generative parameters of one class.
type prototype struct {
	// Oriented sinusoidal texture.
	angle, freq, phase float64
	texAmp             [Channels]float64
	// Gaussian blob.
	blobX, blobY, blobR float64
	blobColor           [Channels]float64
	// Linear color gradient.
	gradAngle float64
	gradAmp   [Channels]float64
	base      [Channels]float64
}

func drawPrototype(rng *stats.RNG) prototype {
	var p prototype
	p.angle = rng.Uniform(0, math.Pi)
	p.freq = rng.Uniform(1.5, 4.5)
	p.phase = rng.Uniform(0, 2*math.Pi)
	p.blobX = rng.Uniform(0.2, 0.8)
	p.blobY = rng.Uniform(0.2, 0.8)
	p.blobR = rng.Uniform(0.12, 0.3)
	p.gradAngle = rng.Uniform(0, 2*math.Pi)
	for c := 0; c < Channels; c++ {
		p.texAmp[c] = rng.Uniform(0.05, 0.35)
		p.blobColor[c] = rng.Uniform(-0.5, 0.5)
		p.gradAmp[c] = rng.Uniform(-0.3, 0.3)
		p.base[c] = rng.Uniform(0.3, 0.7)
	}
	return p
}

// render draws one jittered sample of the prototype into dst (length
// Channels·Height·Width, CHW layout).
func (p prototype) render(dst []float64, rng *stats.RNG, noise float64) {
	// Per-sample jitter, deliberately close to the inter-class deltas of
	// deriveVariant so sibling classes overlap (fine-grained difficulty).
	angle := p.angle + rng.Gaussian(0, 0.18)
	freq := p.freq * (1 + rng.Gaussian(0, 0.08))
	phase := p.phase + rng.Uniform(-0.9, 0.9)
	bx := p.blobX + rng.Gaussian(0, 0.08)
	by := p.blobY + rng.Gaussian(0, 0.08)
	br := p.blobR * (1 + rng.Gaussian(0, 0.12))
	dx, dy := rng.Gaussian(0, 0.07), rng.Gaussian(0, 0.07)
	cosA, sinA := math.Cos(angle), math.Sin(angle)
	cosG, sinG := math.Cos(p.gradAngle), math.Sin(p.gradAngle)
	for h := 0; h < Height; h++ {
		for w := 0; w < Width; w++ {
			x := float64(w)/float64(Width-1) + dx
			y := float64(h)/float64(Height-1) + dy
			tex := math.Sin(2*math.Pi*freq*(x*cosA+y*sinA) + phase)
			d2 := (x-bx)*(x-bx) + (y-by)*(y-by)
			blob := math.Exp(-d2 / (2 * br * br))
			grad := (x-0.5)*cosG + (y-0.5)*sinG
			for c := 0; c < Channels; c++ {
				v := p.base[c] + p.texAmp[c]*tex + p.blobColor[c]*blob + p.gradAmp[c]*grad
				v += rng.Gaussian(0, noise)
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
				dst[(c*Height+h)*Width+w] = v
			}
		}
	}
}

// deriveVariant perturbs a base prototype into a sibling class: the
// texture orientation, blob placement and colors move by small amounts, so
// siblings are only separable through fine features.
func deriveVariant(base prototype, rng *stats.RNG) prototype {
	v := base
	v.angle += rng.Gaussian(0, 0.24)
	v.freq *= 1 + rng.Gaussian(0, 0.09)
	v.phase += rng.Uniform(-0.9, 0.9)
	v.blobX += rng.Gaussian(0, 0.09)
	v.blobY += rng.Gaussian(0, 0.09)
	v.blobR *= 1 + rng.Gaussian(0, 0.13)
	for c := 0; c < Channels; c++ {
		v.texAmp[c] *= 1 + rng.Gaussian(0, 0.14)
		v.blobColor[c] += rng.Gaussian(0, 0.075)
		v.gradAmp[c] += rng.Gaussian(0, 0.05)
		v.base[c] += rng.Gaussian(0, 0.025)
	}
	return v
}

// Config controls dataset generation.
type Config struct {
	Name        string
	Classes     int
	TrainPerCls int
	TestPerCls  int
	Noise       float64
	Seed        uint64
	// Families groups classes into confusable families: classes within a
	// family share a base prototype and differ only by small parameter
	// deltas, making the task fine-grained (0 or 1 = independent classes).
	Families int
}

// SynthImageNetConfig returns the default "ImageNet-substitute" recipe:
// 20 fine-grained classes in 5 confusable families.
func SynthImageNetConfig() Config {
	return Config{Name: "SynthImageNet", Classes: 20, TrainPerCls: 100, TestPerCls: 25,
		Noise: 0.27, Seed: 0x1147e7, Families: 2}
}

// SynthCIFARConfig returns the default "CIFAR-10-substitute" recipe:
// 10 classes in 5 families from an independent prototype draw.
func SynthCIFARConfig() Config {
	return Config{Name: "SynthCIFAR", Classes: 10, TrainPerCls: 120, TestPerCls: 40,
		Noise: 0.24, Seed: 0xc1fa12, Families: 2}
}

// Generate builds the dataset deterministically from the config.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Classes <= 1 || cfg.TrainPerCls <= 0 || cfg.TestPerCls <= 0 {
		return nil, fmt.Errorf("dataset: invalid config %+v", cfg)
	}
	rng := stats.NewRNG(cfg.Seed)
	protos := make([]prototype, cfg.Classes)
	if cfg.Families > 1 {
		bases := make([]prototype, cfg.Families)
		for i := range bases {
			bases[i] = drawPrototype(rng)
		}
		for i := range protos {
			protos[i] = deriveVariant(bases[i%cfg.Families], rng)
		}
	} else {
		for i := range protos {
			protos[i] = drawPrototype(rng)
		}
	}
	ds := &Dataset{Name: cfg.Name, Classes: cfg.Classes}
	nTrain := cfg.Classes * cfg.TrainPerCls
	nTest := cfg.Classes * cfg.TestPerCls
	ds.Train = dnn.NewTensor(nTrain, Channels, Height, Width)
	ds.Test = dnn.NewTensor(nTest, Channels, Height, Width)
	ds.TrainY = make([]int, nTrain)
	ds.TestY = make([]int, nTest)
	feat := Channels * Height * Width
	// Interleave classes so mini-batches are balanced even without
	// shuffling.
	idx := 0
	for s := 0; s < cfg.TrainPerCls; s++ {
		for cls := 0; cls < cfg.Classes; cls++ {
			protos[cls].render(ds.Train.Data[idx*feat:(idx+1)*feat], rng, cfg.Noise)
			ds.TrainY[idx] = cls
			idx++
		}
	}
	idx = 0
	for s := 0; s < cfg.TestPerCls; s++ {
		for cls := 0; cls < cfg.Classes; cls++ {
			protos[cls].render(ds.Test.Data[idx*feat:(idx+1)*feat], rng, cfg.Noise)
			ds.TestY[idx] = cls
			idx++
		}
	}
	return ds, nil
}
