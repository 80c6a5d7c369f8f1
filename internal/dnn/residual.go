package dnn

import (
	"optima/internal/stats"
)

// Residual is a two-convolution residual block:
//
//	out = ReLU( BN2(Conv2(ReLU(BN1(Conv1(x))))) + proj(x) )
//
// where proj is an optional 1×1 convolution used when the channel count
// changes (the classic ResNet basic block).
type Residual struct {
	name  string
	Conv1 *Conv2D
	BN1   *BatchNorm2D
	Relu1 *ReLU
	Conv2 *Conv2D
	BN2   *BatchNorm2D
	Proj  *Conv2D // nil when input channels == output channels
	relu2 *ReLU
}

// NewResidual builds a basic residual block mapping inC → outC channels.
func NewResidual(name string, inC, outC int, rng *stats.RNG) *Residual {
	r := &Residual{
		name:  name,
		Conv1: NewConv2D(name+".conv1", inC, outC, 3, rng),
		BN1:   NewBatchNorm2D(name+".bn1", outC),
		Relu1: NewReLU(name + ".relu1"),
		Conv2: NewConv2D(name+".conv2", outC, outC, 3, rng),
		BN2:   NewBatchNorm2D(name+".bn2", outC),
		relu2: NewReLU(name + ".relu2"),
	}
	if inC != outC {
		r.Proj = NewConv2D(name+".proj", inC, outC, 1, rng)
	}
	return r
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := append(r.Conv1.Params(), r.BN1.Params()...)
	ps = append(ps, r.Conv2.Params()...)
	ps = append(ps, r.BN2.Params()...)
	if r.Proj != nil {
		ps = append(ps, r.Proj.Params()...)
	}
	return ps
}

// MACs implements MACCounter (sums the block's convolutions).
func (r *Residual) MACs(c, h, w int) (int64, int, int, int) {
	m1, oc, oh, ow := r.Conv1.MACs(c, h, w)
	m2, _, _, _ := r.Conv2.MACs(oc, oh, ow)
	total := m1 + m2
	if r.Proj != nil {
		mp, _, _, _ := r.Proj.MACs(c, h, w)
		total += mp
	}
	return total, oc, oh, ow
}

// Forward implements Layer.
func (r *Residual) Forward(x *Tensor, train bool) *Tensor {
	main := r.Conv1.Forward(x, train)
	main = r.BN1.Forward(main, train)
	main = r.Relu1.Forward(main, train)
	main = r.Conv2.Forward(main, train)
	main = r.BN2.Forward(main, train)
	skip := x
	if r.Proj != nil {
		skip = r.Proj.Forward(x, train)
	}
	sum := main.Clone()
	for i := range sum.Data {
		sum.Data[i] += skip.Data[i]
	}
	return r.relu2.Forward(sum, train)
}

// Backward implements Layer.
func (r *Residual) Backward(grad *Tensor) *Tensor {
	g := r.relu2.Backward(grad)
	// Branch gradients: the sum node passes g to both paths.
	gMain := r.BN2.Backward(g)
	gMain = r.Conv2.Backward(gMain)
	gMain = r.Relu1.Backward(gMain)
	gMain = r.BN1.Backward(gMain)
	din := r.Conv1.Backward(gMain)
	if r.Proj != nil {
		gSkip := r.Proj.Backward(g)
		for i := range din.Data {
			din.Data[i] += gSkip.Data[i]
		}
	} else {
		for i := range din.Data {
			din.Data[i] += g.Data[i]
		}
	}
	return din
}

// ConvLayers returns the block's convolutions paired with the batch-norms
// to fold into them (projection has no batch-norm).
func (r *Residual) ConvLayers() (convs []*Conv2D, bns []*BatchNorm2D) {
	convs = []*Conv2D{r.Conv1, r.Conv2}
	bns = []*BatchNorm2D{r.BN1, r.BN2}
	if r.Proj != nil {
		convs = append(convs, r.Proj)
		bns = append(bns, nil)
	}
	return convs, bns
}
