package dnn

import (
	"fmt"
	"math"
	"sort"

	"optima/internal/sched"
	"optima/internal/stats"
)

// Network is a sequential stack of layers with softmax-cross-entropy
// training support.
type Network struct {
	Name   string
	Layers []Layer
	// InC/InH/InW record the expected input shape for MAC counting.
	InC, InH, InW int
	// EvalWorkers bounds the batch fan-out of TopKAccuracy (0 = GOMAXPROCS).
	// Its batches run concurrent Forward(x, false) calls, which write no
	// layer state.
	EvalWorkers int
}

// NewNetwork creates an empty network for the given input shape.
func NewNetwork(name string, inC, inH, inW int) *Network {
	return &Network{Name: name, InC: inC, InH: inH, InW: inW}
}

// Add appends layers.
func (n *Network) Add(layers ...Layer) { n.Layers = append(n.Layers, layers...) }

// Params returns all learnable parameters.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total learnable scalar count.
func (n *Network) NumParams() int {
	var total int
	for _, p := range n.Params() {
		total += len(p.W)
	}
	return total
}

// Forward runs the network and returns the logits. With train set the
// layers record state for Backward, so a training Forward is not safe for
// concurrent use. With train unset it is the inference pass: it writes no
// layer state, so concurrent inference calls on one network are race-free —
// the property batched evaluation relies on.
func (n *Network) Forward(x *Tensor, train bool) *Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates dL/dlogits through all layers.
func (n *Network) Backward(grad *Tensor) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
}

// MACsPerInference counts the multiplications of one forward pass for one
// sample (conv + dense layers), the paper's Table II metric.
func (n *Network) MACsPerInference() int64 {
	c, h, w := n.InC, n.InH, n.InW
	var total int64
	for _, l := range n.Layers {
		switch t := l.(type) {
		case MACCounter:
			m, oc, oh, ow := t.MACs(c, h, w)
			total += m
			c, h, w = oc, oh, ow
		case *MaxPool2:
			h, w = h/2, w/2
		case *GlobalAvgPool:
			h, w = 1, 1
		}
	}
	return total
}

// Softmax returns the row-wise softmax of logits.
func Softmax(logits *Tensor) *Tensor {
	out := logits.Clone()
	classes := logits.FeatureLen()
	for n := 0; n < logits.N; n++ {
		row := out.Data[n*classes : (n+1)*classes]
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(v - max)
			row[i] = e
			sum += e
		}
		for i := range row {
			row[i] /= sum
		}
	}
	return out
}

// CrossEntropyLoss computes the mean cross-entropy of logits against integer
// labels and the gradient dL/dlogits.
func CrossEntropyLoss(logits *Tensor, labels []int) (loss float64, grad *Tensor) {
	probs := Softmax(logits)
	classes := logits.FeatureLen()
	grad = probs.Clone()
	invN := 1.0 / float64(logits.N)
	for n := 0; n < logits.N; n++ {
		p := probs.Data[n*classes+labels[n]]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p) * invN
		grad.Data[n*classes+labels[n]] -= 1
	}
	for i := range grad.Data {
		grad.Data[i] *= invN
	}
	return loss, grad
}

// SGD is stochastic gradient descent with momentum and weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*Param][]float64
}

// NewSGD returns an optimizer with the given hyperparameters.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: map[*Param][]float64{}}
}

// Step applies one update to the parameters and clears gradients.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		v := s.velocity[p]
		if v == nil {
			v = make([]float64, len(p.W))
			s.velocity[p] = v
		}
		for i := range p.W {
			g := p.G[i] + s.WeightDecay*p.W[i]
			v[i] = s.Momentum*v[i] - s.LR*g
			p.W[i] += v[i]
		}
		p.ZeroGrad()
	}
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	// LRDropEvery halves the learning rate every this many epochs (0 = off).
	LRDropEvery int
	Seed        uint64
	// Verbose prints per-epoch loss/accuracy.
	Verbose bool
}

// DefaultTrainConfig returns the training recipe used by the experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs: 8, BatchSize: 32, LR: 0.05, Momentum: 0.9,
		WeightDecay: 1e-4, LRDropEvery: 4, Seed: 1,
	}
}

// Fit trains the network on (x, labels) and returns the final epoch's mean
// training loss.
func (n *Network) Fit(x *Tensor, labels []int, cfg TrainConfig) (float64, error) {
	return n.FitAround(x, labels, cfg, func(pass func()) { pass() })
}

// FitAround is Fit with each minibatch's forward and backward pass run
// inside around, which must call pass once. The optimizer step follows
// around's return, so a wrapper that swaps weights in before the pass and
// restores them after it gets the gradients at the swapped weights applied
// to the restored ones (quantization-aware training's straight-through
// estimator).
func (n *Network) FitAround(x *Tensor, labels []int, cfg TrainConfig, around func(pass func())) (float64, error) {
	if x.N != len(labels) {
		return 0, fmt.Errorf("dnn: %d samples but %d labels", x.N, len(labels))
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	params := n.Params()
	opt := NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	rng := stats.NewRNG(cfg.Seed)
	feat := x.FeatureLen()
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.LRDropEvery > 0 && epoch > 0 && epoch%cfg.LRDropEvery == 0 {
			opt.LR /= 2
		}
		perm := rng.Perm(x.N)
		var epochLoss float64
		batches := 0
		for start := 0; start < x.N; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > x.N {
				end = x.N
			}
			bs := end - start
			batch := NewTensor(bs, x.C, x.H, x.W)
			blabels := make([]int, bs)
			for i := 0; i < bs; i++ {
				src := perm[start+i]
				copy(batch.Data[i*feat:(i+1)*feat], x.Data[src*feat:(src+1)*feat])
				blabels[i] = labels[src]
			}
			var loss float64
			around(func() {
				var grad *Tensor
				loss, grad = CrossEntropyLoss(n.Forward(batch, true), blabels)
				n.Backward(grad)
			})
			opt.Step(params)
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Verbose {
			fmt.Printf("  %s epoch %d/%d loss %.4f\n", n.Name, epoch+1, cfg.Epochs, lastLoss)
		}
	}
	return lastLoss, nil
}

// TopKAccuracy evaluates top-1 and top-k accuracy of the network's float
// inference pass, fanning batches out across the shared scheduler
// (Forward(x, false) writes no layer state, so concurrent batches are
// race-free, mirroring the quantized networks in internal/quant). Results
// are independent of the worker count.
func (n *Network) TopKAccuracy(x *Tensor, labels []int, k int) (top1, topk float64) {
	return EvalTopKWorkers(func(b *Tensor) *Tensor { return n.Forward(b, false) }, x, labels, k, n.EvalWorkers)
}

// evalBatch is the sample count of one EvalTopKWorkers batch.
const evalBatch = 32

// EvalTopKWorkers scores a classifier in batches of evalBatch samples
// fanned out across the shared scheduler (internal/sched). forward must be
// safe for concurrent calls whenever workers != 1 (workers <= 0 uses
// GOMAXPROCS). The result is independent of the worker count.
func EvalTopKWorkers(forward func(*Tensor) *Tensor, x *Tensor, labels []int, k, workers int) (top1, topk float64) {
	feat := x.FeatureLen()
	starts := make([]int, 0, (x.N+evalBatch-1)/evalBatch)
	for start := 0; start < x.N; start += evalBatch {
		starts = append(starts, start)
	}
	type hits struct{ h1, hk int }
	perBatch, _ := sched.Map(workers, starts, func(_ int, start int) (hits, error) {
		end := start + evalBatch
		if end > x.N {
			end = x.N
		}
		bs := end - start
		b := NewTensor(bs, x.C, x.H, x.W)
		copy(b.Data, x.Data[start*feat:end*feat])
		logits := forward(b)
		classes := logits.FeatureLen()
		var h hits
		for i := 0; i < bs; i++ {
			row := logits.Data[i*classes : (i+1)*classes]
			label := labels[start+i]
			// Rank of the true class.
			idx := make([]int, classes)
			for j := range idx {
				idx[j] = j
			}
			sort.Slice(idx, func(a, b int) bool { return row[idx[a]] > row[idx[b]] })
			if idx[0] == label {
				h.h1++
			}
			for j := 0; j < k && j < classes; j++ {
				if idx[j] == label {
					h.hk++
					break
				}
			}
		}
		return h, nil
	})
	var hits1, hitsK int
	for _, h := range perBatch {
		hits1 += h.h1
		hitsK += h.hk
	}
	total := float64(x.N)
	return 100 * float64(hits1) / total, 100 * float64(hitsK) / total
}

// FoldAllBatchNorms folds every batch-norm in the network into its
// preceding convolution (sequential stacks and residual blocks), preparing
// the network for post-training quantization.
func (n *Network) FoldAllBatchNorms() error {
	var prevConv *Conv2D
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Conv2D:
			prevConv = t
		case *BatchNorm2D:
			if prevConv == nil {
				return fmt.Errorf("dnn: batch-norm %s has no preceding convolution", t.Name())
			}
			if err := t.FoldInto(prevConv); err != nil {
				return err
			}
			prevConv = nil
		case *Residual:
			convs, bns := t.ConvLayers()
			for i, bn := range bns {
				if bn == nil {
					continue
				}
				if err := bn.FoldInto(convs[i]); err != nil {
					return err
				}
			}
			prevConv = nil
		default:
			prevConv = nil
		}
	}
	return nil
}
