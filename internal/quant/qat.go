package quant

import "optima/internal/dnn"

// DefaultQATConfig returns the quantization-aware fine-tuning recipe — the
// paper's "retraining procedures ... to mitigate the impact of
// quantization": a short fine-tune (2 epochs at a reduced rate, no weight
// decay).
func DefaultQATConfig() dnn.TrainConfig {
	return dnn.TrainConfig{Epochs: 2, BatchSize: 32, LR: 0.005, Momentum: 0.9, Seed: 7}
}

// QATFineTune fine-tunes the float network with weight fake-quantization
// and a straight-through estimator. Around each minibatch pass of
// Network.FitAround the conv/dense weights are snapshotted and replaced by
// their quantize-dequantize images, so the gradients are those of the
// quantized forward pass; the snapshots are restored before the optimizer
// step, which applies those gradients to the full-precision weights. This
// nudges the float weights toward INT4-friendly values before
// post-training quantization.
func QATFineTune(net *dnn.Network, x *dnn.Tensor, labels []int, cfg dnn.TrainConfig) error {
	weightParams := fakeQuantTargets(net)
	snapshots := make([][]float64, len(weightParams))
	for i, p := range weightParams {
		snapshots[i] = make([]float64, len(p.W))
	}
	_, err := net.FitAround(x, labels, cfg, func(pass func()) {
		for i, p := range weightParams {
			copy(snapshots[i], p.W)
			wq := QuantizeWeights(p.W)
			for j := range p.W {
				p.W[j] = float64(wq.Codes[j]) * wq.Scale
			}
		}
		pass()
		for i, p := range weightParams {
			copy(p.W, snapshots[i])
		}
	})
	return err
}

// fakeQuantTargets returns the weight parameters of conv and dense layers
// (biases and batch-norm parameters stay in float).
func fakeQuantTargets(net *dnn.Network) []*dnn.Param {
	var out []*dnn.Param
	var walk func(l dnn.Layer)
	walk = func(l dnn.Layer) {
		switch t := l.(type) {
		case *dnn.Conv2D:
			out = append(out, t.Weight)
		case *dnn.Dense:
			out = append(out, t.Weight)
		case *dnn.Residual:
			walk(t.Conv1)
			walk(t.Conv2)
			if t.Proj != nil {
				walk(t.Proj)
			}
		}
	}
	for _, l := range net.Layers {
		walk(l)
	}
	return out
}
