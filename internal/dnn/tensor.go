// Package dnn is a pure-Go convolutional neural network substrate: tensors,
// layers (convolution, dense, pooling, batch-norm, residual blocks),
// SGD-with-momentum training via backpropagation, and the scaled VGG/ResNet
// model zoo used for the paper's application analysis (Section VI).
//
// The paper evaluates its in-SRAM multiplier corners inside INT4-quantized
// Keras models (VGG16/19, ResNet50/101) on ImageNet and CIFAR-10. This
// package provides the equivalent substrate: networks with the same
// structural contrasts (plain-deep versus residual, two depths of each)
// that are trained from scratch on the synthetic datasets of package
// dataset, then handed to package quant for INT4 post-training quantization
// and in-memory-multiplier injection.
package dnn

import "fmt"

// Tensor is a dense 4-D tensor in NCHW layout (batch, channel, height,
// width). Dense layers use C as the feature dimension with H = W = 1.
type Tensor struct {
	N, C, H, W int
	Data       []float64
}

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(n, c, h, w int) *Tensor {
	if n <= 0 || c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("dnn: invalid tensor shape [%d %d %d %d]", n, c, h, w))
	}
	return &Tensor{N: n, C: c, H: h, W: w, Data: make([]float64, n*c*h*w)}
}

// Shape returns the shape as a human-readable string.
func (t *Tensor) Shape() string {
	return fmt.Sprintf("[%d %d %d %d]", t.N, t.C, t.H, t.W)
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// FeatureLen returns the per-sample element count C·H·W.
func (t *Tensor) FeatureLen() int { return t.C * t.H * t.W }

// Idx returns the flat index of (n, c, h, w).
func (t *Tensor) Idx(n, c, h, w int) int {
	return ((n*t.C+c)*t.H+h)*t.W + w
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.N, t.C, t.H, t.W)
	copy(c.Data, t.Data)
	return c
}

// ZerosLike returns a zero tensor with the same shape.
func (t *Tensor) ZerosLike() *Tensor { return NewTensor(t.N, t.C, t.H, t.W) }

// Param is one learnable parameter array with its gradient.
type Param struct {
	Name string
	W    []float64 // values
	G    []float64 // gradient, same length
}

// NewParam allocates a parameter of length n.
func NewParam(name string, n int) *Param {
	return &Param{Name: name, W: make([]float64, n), G: make([]float64, n)}
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}
