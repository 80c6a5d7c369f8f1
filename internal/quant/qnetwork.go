package quant

import (
	"optima/internal/dnn"
)

// QNetwork is the quantized execution of a trained float network: every
// convolution and dense layer runs with uint4 activation codes × int4
// weight codes through the pluggable Multiplier; the glue operations
// (ReLU, pooling, residual adds) run in the dequantized domain, as TFLite
// does for non-matmul operators.
type QNetwork struct {
	Name   string
	stages []qStage
	// Mult is the scalar multiplier used by all quantized layers.
	Mult Multiplier
	// Workers bounds the evaluation fan-out of TopKAccuracy
	// (0 = GOMAXPROCS). Ignored when Mult is not safe for concurrent use
	// (a sampled InMemory draws from one RNG): evaluation then stays on
	// one worker.
	Workers int
}

// qStage is one executable stage of the quantized graph.
type qStage interface {
	forward(x *dnn.Tensor, m Multiplier) *dnn.Tensor
}

// floatStage wraps a shape-only float layer (ReLU, pools).
type floatStage struct{ layer dnn.Layer }

func (s floatStage) forward(x *dnn.Tensor, _ Multiplier) *dnn.Tensor {
	return s.layer.Forward(x, false)
}

// qConv executes a quantized convolution.
type qConv struct {
	inC, outC, k int
	act          ActQuant
	w            WeightQuant
	bias         []float64
}

func (s *qConv) forward(x *dnn.Tensor, m Multiplier) *dnn.Tensor {
	out := dnn.NewTensor(x.N, s.outC, x.H, x.W)
	pad := s.k / 2
	// Quantize the input tensor once.
	codes := make([]uint8, x.Len())
	for i, v := range x.Data {
		codes[i] = s.act.Quantize(v)
	}
	za := s.act.Zero
	outScale := s.act.Scale * s.w.Scale
	for n := 0; n < x.N; n++ {
		for oc := 0; oc < s.outC; oc++ {
			for oh := 0; oh < x.H; oh++ {
				for ow := 0; ow < x.W; ow++ {
					var acc, wSum int32
					for ic := 0; ic < s.inC; ic++ {
						for kh := 0; kh < s.k; kh++ {
							ih := oh + kh - pad
							if ih < 0 || ih >= x.H {
								continue
							}
							rowBase := x.Idx(n, ic, ih, 0)
							wBase := (oc*s.inC+ic)*s.k*s.k + kh*s.k
							for kw := 0; kw < s.k; kw++ {
								iw := ow + kw - pad
								if iw < 0 || iw >= x.W {
									continue
								}
								wc := s.w.Codes[wBase+kw]
								if wc == 0 {
									continue // stored zero word: no discharge
								}
								acc += m.Mul(codes[rowBase+iw], wc)
								wSum += int32(wc)
							}
						}
					}
					// Zero-point correction: Σ(a−za)·w = Σ a·w − za·Σw.
					acc -= za * wSum
					out.Data[out.Idx(n, oc, oh, ow)] = float64(acc)*outScale + s.bias[oc]
				}
			}
		}
	}
	return out
}

// qDense executes a quantized dense layer.
type qDense struct {
	in, out int
	act     ActQuant
	w       WeightQuant
	bias    []float64
}

func (s *qDense) forward(x *dnn.Tensor, m Multiplier) *dnn.Tensor {
	out := dnn.NewTensor(x.N, s.out, 1, 1)
	codes := make([]uint8, x.Len())
	for i, v := range x.Data {
		codes[i] = s.act.Quantize(v)
	}
	za := s.act.Zero
	outScale := s.act.Scale * s.w.Scale
	for n := 0; n < x.N; n++ {
		xoff := n * s.in
		for o := 0; o < s.out; o++ {
			var acc, wSum int32
			woff := o * s.in
			for i := 0; i < s.in; i++ {
				wc := s.w.Codes[woff+i]
				if wc == 0 {
					continue
				}
				acc += m.Mul(codes[xoff+i], wc)
				wSum += int32(wc)
			}
			acc -= za * wSum
			out.Data[n*s.out+o] = float64(acc)*outScale + s.bias[o]
		}
	}
	return out
}

// qResidual executes a residual block with quantized convolutions and a
// float skip-add (batch-norms must already be folded).
type qResidual struct {
	conv1, conv2 *qConv
	proj         *qConv // nil when identity skip
	relu1        dnn.Layer
	relu2        dnn.Layer
}

func (s *qResidual) forward(x *dnn.Tensor, m Multiplier) *dnn.Tensor {
	main := s.conv1.forward(x, m)
	main = s.relu1.Forward(main, false)
	main = s.conv2.forward(main, m)
	skip := x
	if s.proj != nil {
		skip = s.proj.forward(x, m)
	}
	sum := main.Clone()
	for i := range sum.Data {
		sum.Data[i] += skip.Data[i]
	}
	return s.relu2.Forward(sum, false)
}

// Forward runs the quantized network on a float input tensor and returns
// float logits. The float glue stages run their inference pass, which
// writes no layer state, so Forward is safe for concurrent use whenever
// the multiplier is — the condition TopKAccuracy checks before fanning
// batches out.
func (q *QNetwork) Forward(x *dnn.Tensor) *dnn.Tensor {
	for _, s := range q.stages {
		x = s.forward(x, q.Mult)
	}
	return x
}

// TopKAccuracy evaluates the quantized network, fanning batches out across
// the shared scheduler when the multiplier allows it.
func (q *QNetwork) TopKAccuracy(x *dnn.Tensor, labels []int, k int) (top1, topk float64) {
	workers := q.Workers
	if !multSafe(q.Mult) {
		workers = 1
	}
	return dnn.EvalTopKWorkers(q.Forward, x, labels, k, workers)
}

// multSafe reports whether the multiplier tolerates concurrent Mul calls.
// Unknown implementations are conservatively treated as serial.
func multSafe(m Multiplier) bool {
	switch t := m.(type) {
	case Exact:
		return true
	case *InMemory:
		return t.Deterministic()
	}
	return false
}

// Quantize converts a trained float network to INT4 quantized execution.
// Batch-norms are folded first; activation ranges are calibrated by running
// the float network on calib (a representative batch). The initial
// multiplier is Exact (the INT4 baseline); swap q.Mult to inject a corner.
func Quantize(net *dnn.Network, calib *dnn.Tensor) (*QNetwork, error) {
	if err := net.FoldAllBatchNorms(); err != nil {
		return nil, err
	}
	// Calibration pass: record the input range of every conv/dense layer
	// (and residual-internal convolutions) by monkey-patching via forward
	// replay. We walk layers manually to observe intermediate tensors.
	q := &QNetwork{Name: net.Name + "-int4", Mult: Exact{}}
	x := calib
	for _, l := range net.Layers {
		switch t := l.(type) {
		case *dnn.Conv2D:
			q.stages = append(q.stages, convStageFrom(t, x))
			x = t.Forward(x, false)
		case *dnn.Dense:
			q.stages = append(q.stages, denseStageFrom(t, x))
			x = t.Forward(x, false)
		case *dnn.Residual:
			stage, out := residualStageFrom(t, x)
			q.stages = append(q.stages, stage)
			x = out
		case *dnn.BatchNorm2D:
			// Folded: identity at inference; keep for shape fidelity.
			x = t.Forward(x, false)
		default:
			q.stages = append(q.stages, floatStage{layer: l})
			x = l.Forward(x, false)
		}
	}
	return q, nil
}

func tensorRange(x *dnn.Tensor) (min, max float64) {
	min, max = x.Data[0], x.Data[0]
	for _, v := range x.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return
}

func convStageFrom(c *dnn.Conv2D, input *dnn.Tensor) *qConv {
	min, max := tensorRange(input)
	return &qConv{
		inC: c.InC, outC: c.OutC, k: c.K,
		act:  calibrate(min, max),
		w:    QuantizeWeights(c.Weight.W),
		bias: append([]float64(nil), c.Bias.W...),
	}
}

func denseStageFrom(d *dnn.Dense, input *dnn.Tensor) *qDense {
	min, max := tensorRange(input)
	return &qDense{
		in: d.In, out: d.Out,
		act:  calibrate(min, max),
		w:    QuantizeWeights(d.Weight.W),
		bias: append([]float64(nil), d.Bias.W...),
	}
}

func residualStageFrom(r *dnn.Residual, input *dnn.Tensor) (qStage, *dnn.Tensor) {
	// Calibrate conv1 on the block input, conv2 on the post-ReLU main path.
	s := &qResidual{relu1: r.Relu1, relu2: reluOf(r)}
	s.conv1 = convStageFrom(r.Conv1, input)
	main := r.Conv1.Forward(input, false)
	main = r.BN1.Forward(main, false)
	main = r.Relu1.Forward(main, false)
	s.conv2 = convStageFrom(r.Conv2, main)
	if r.Proj != nil {
		s.proj = convStageFrom(r.Proj, input)
	}
	out := r.Forward(input, false)
	return s, out
}

// reluOf returns the block's output activation.
func reluOf(r *dnn.Residual) dnn.Layer {
	return dnn.NewReLU(r.Name() + ".qrelu2")
}
