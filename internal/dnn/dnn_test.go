package dnn

import (
	"math"
	"sync"
	"testing"

	"optima/internal/stats"
)

func TestTensorIndexing(t *testing.T) {
	x := NewTensor(2, 3, 4, 5)
	x.Data[x.Idx(1, 2, 3, 4)] = 42
	if got := x.Data[((1*3+2)*4+3)*5+4]; got != 42 {
		t.Fatalf("Idx(1, 2, 3, 4) addresses %g, want 42", got)
	}
	if x.Len() != 2*3*4*5 || x.FeatureLen() != 3*4*5 {
		t.Fatal("length helpers wrong")
	}
	if x.Idx(1, 0, 0, 0) != x.FeatureLen() {
		t.Fatal("sample stride wrong")
	}
	c := x.Clone()
	c.Data[0] = 7
	if x.Data[0] == 7 {
		t.Fatal("Clone aliases data")
	}
}

func TestTensorBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTensor(0, 1, 1, 1)
}

// numericalGradCheck compares analytic parameter gradients of a tiny
// network against central finite differences.
func numericalGradCheck(t *testing.T, net *Network, x *Tensor, labels []int, tol float64) {
	t.Helper()
	logits := net.Forward(x, true)
	_, grad := CrossEntropyLoss(logits, labels)
	net.Backward(grad)

	lossAt := func() float64 {
		logits := net.Forward(x, true)
		l, _ := CrossEntropyLoss(logits, labels)
		return l
	}
	const h = 1e-5
	for _, p := range net.Params() {
		// Check a few entries of each parameter.
		step := len(p.W)/5 + 1
		for i := 0; i < len(p.W); i += step {
			orig := p.W[i]
			p.W[i] = orig + h
			up := lossAt()
			p.W[i] = orig - h
			down := lossAt()
			p.W[i] = orig
			numeric := (up - down) / (2 * h)
			if math.Abs(numeric-p.G[i]) > tol*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %g vs numeric %g", p.Name, i, p.G[i], numeric)
			}
		}
	}
}

func TestConvGradients(t *testing.T) {
	rng := stats.NewRNG(1)
	net := NewNetwork("g", 2, 4, 4)
	net.Add(NewConv2D("c", 2, 3, 3, rng))
	net.Add(NewGlobalAvgPool("gap"))
	net.Add(NewDense("fc", 3, 2, rng))
	x := randomTensor(rng, 2, 2, 4, 4)
	numericalGradCheck(t, net, x, []int{0, 1}, 1e-4)
}

func TestDenseReLUGradients(t *testing.T) {
	rng := stats.NewRNG(2)
	net := NewNetwork("g", 3, 1, 1)
	net.Add(NewDense("fc1", 3, 5, rng))
	net.Add(NewReLU("r"))
	net.Add(NewDense("fc2", 5, 2, rng))
	x := randomTensor(rng, 3, 3, 1, 1)
	numericalGradCheck(t, net, x, []int{0, 1, 0}, 1e-4)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := stats.NewRNG(3)
	net := NewNetwork("g", 1, 4, 4)
	net.Add(NewConv2D("c", 1, 2, 3, rng))
	net.Add(NewMaxPool2("p"))
	net.Add(NewGlobalAvgPool("gap"))
	net.Add(NewDense("fc", 2, 2, rng))
	x := randomTensor(rng, 2, 1, 4, 4)
	numericalGradCheck(t, net, x, []int{1, 0}, 1e-4)
}

func TestBatchNormGradients(t *testing.T) {
	rng := stats.NewRNG(4)
	net := NewNetwork("g", 2, 3, 3)
	net.Add(NewConv2D("c", 2, 3, 3, rng))
	net.Add(NewBatchNorm2D("bn", 3))
	net.Add(NewReLU("r"))
	net.Add(NewGlobalAvgPool("gap"))
	net.Add(NewDense("fc", 3, 2, rng))
	x := randomTensor(rng, 4, 2, 3, 3)
	numericalGradCheck(t, net, x, []int{0, 1, 1, 0}, 2e-4)
}

func TestResidualGradients(t *testing.T) {
	rng := stats.NewRNG(5)
	net := NewNetwork("g", 2, 3, 3)
	net.Add(NewResidual("res", 2, 4, rng))
	net.Add(NewGlobalAvgPool("gap"))
	net.Add(NewDense("fc", 4, 2, rng))
	x := randomTensor(rng, 3, 2, 3, 3)
	numericalGradCheck(t, net, x, []int{0, 1, 1}, 2e-4)
}

func TestSoftmaxRows(t *testing.T) {
	logits := NewTensor(2, 3, 1, 1)
	copy(logits.Data, []float64{1, 2, 3, 1000, 1000, 1000})
	p := Softmax(logits)
	var sum float64
	for i := 0; i < 3; i++ {
		sum += p.Data[i]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax row sum %g", sum)
	}
	// Large logits must not overflow (max subtraction).
	for i := 3; i < 6; i++ {
		if math.Abs(p.Data[i]-1.0/3) > 1e-9 {
			t.Fatalf("uniform logits give %g", p.Data[i])
		}
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	logits := NewTensor(1, 2, 1, 1)
	copy(logits.Data, []float64{0, 0})
	loss, grad := CrossEntropyLoss(logits, []int{0})
	if math.Abs(loss-math.Ln2) > 1e-12 {
		t.Fatalf("loss = %g, want ln 2", loss)
	}
	if math.Abs(grad.Data[0]+0.5) > 1e-12 || math.Abs(grad.Data[1]-0.5) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestTrainingReducesLossAndFits(t *testing.T) {
	rng := stats.NewRNG(6)
	// Tiny linearly separable task.
	n := 60
	x := NewTensor(n, 2, 1, 1)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		x.Data[i*2] = rng.Gaussian(float64(cls)*2-1, 0.3)
		x.Data[i*2+1] = rng.Gaussian(float64(cls)*2-1, 0.3)
		labels[i] = cls
	}
	net := NewNetwork("toy", 2, 1, 1)
	net.Add(NewDense("fc1", 2, 8, rng))
	net.Add(NewReLU("r"))
	net.Add(NewDense("fc2", 8, 2, rng))
	cfg := TrainConfig{Epochs: 30, BatchSize: 16, LR: 0.1, Momentum: 0.9, Seed: 3}
	loss, err := net.Fit(x, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.1 {
		t.Fatalf("final loss %g, want < 0.1", loss)
	}
	top1, _ := net.TopKAccuracy(x, labels, 2)
	if top1 < 95 {
		t.Fatalf("train accuracy %g%%, want ≥ 95%%", top1)
	}
}

func TestZooModels(t *testing.T) {
	rng := stats.NewRNG(7)
	macs := map[string]int64{}
	for _, name := range ZooModels() {
		net, err := NewZooModel(name, 3, 12, 12, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		x := randomTensor(rng, 2, 3, 12, 12)
		logits := net.Forward(x, false)
		if logits.FeatureLen() != 10 || logits.N != 2 {
			t.Fatalf("%s logits shape %s", name, logits.Shape())
		}
		macs[name] = net.MACsPerInference()
		if macs[name] <= 0 {
			t.Fatalf("%s MAC count %d", name, macs[name])
		}
		if net.NumParams() <= 0 {
			t.Fatalf("%s has no parameters", name)
		}
	}
	// Structural contrasts from the paper: deeper variants do more MACs.
	if macs["VGG19S"] <= macs["VGG16S"] {
		t.Fatal("VGG19S must be heavier than VGG16S")
	}
	if macs["ResNet101S"] <= macs["ResNet50S"] {
		t.Fatal("ResNet101S must be heavier than ResNet50S")
	}
	if _, err := NewZooModel("nope", 3, 12, 12, 10, rng); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestBatchNormFolding(t *testing.T) {
	rng := stats.NewRNG(8)
	net := NewNetwork("fold", 2, 5, 5)
	net.Add(NewConv2D("c", 2, 3, 3, rng))
	net.Add(NewBatchNorm2D("bn", 3))
	net.Add(NewReLU("r"))
	net.Add(NewGlobalAvgPool("gap"))
	net.Add(NewDense("fc", 3, 2, rng))
	// Train briefly so the running stats are non-trivial.
	x := randomTensor(rng, 8, 2, 5, 5)
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	if _, err := net.Fit(x, labels, TrainConfig{Epochs: 3, BatchSize: 4, LR: 0.05, Momentum: 0.9, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	before := net.Forward(x, false)
	if err := net.FoldAllBatchNorms(); err != nil {
		t.Fatal(err)
	}
	after := net.Forward(x, false)
	for i := range before.Data {
		if math.Abs(before.Data[i]-after.Data[i]) > 1e-9 {
			t.Fatalf("folding changed inference: %g vs %g", before.Data[i], after.Data[i])
		}
	}
}

func TestResidualFolding(t *testing.T) {
	rng := stats.NewRNG(9)
	net := NewNetwork("foldres", 2, 4, 4)
	net.Add(NewResidual("res", 2, 3, rng))
	net.Add(NewGlobalAvgPool("gap"))
	net.Add(NewDense("fc", 3, 2, rng))
	x := randomTensor(rng, 6, 2, 4, 4)
	labels := []int{0, 1, 0, 1, 0, 1}
	if _, err := net.Fit(x, labels, TrainConfig{Epochs: 3, BatchSize: 3, LR: 0.05, Momentum: 0.9, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	before := net.Forward(x, false)
	if err := net.FoldAllBatchNorms(); err != nil {
		t.Fatal(err)
	}
	after := net.Forward(x, false)
	for i := range before.Data {
		if math.Abs(before.Data[i]-after.Data[i]) > 1e-9 {
			t.Fatalf("residual folding changed inference")
		}
	}
}

func TestReplaceHead(t *testing.T) {
	rng := stats.NewRNG(11)
	net, err := NewZooModel("VGG16S", 3, 12, 12, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ReplaceHead(10, rng); err != nil {
		t.Fatal(err)
	}
	x := randomTensor(rng, 1, 3, 12, 12)
	if got := net.Forward(x, false).FeatureLen(); got != 10 {
		t.Fatalf("new head outputs %d classes, want 10", got)
	}
}

func TestEvalTopK(t *testing.T) {
	// Classifier that always ranks class 1 first, class 0 second.
	forward := func(b *Tensor) *Tensor {
		out := NewTensor(b.N, 3, 1, 1)
		for n := 0; n < b.N; n++ {
			out.Data[n*3+0] = 1
			out.Data[n*3+1] = 2
			out.Data[n*3+2] = 0
		}
		return out
	}
	x := NewTensor(4, 1, 1, 1)
	top1, top2 := EvalTopKWorkers(forward, x, []int{1, 1, 0, 2}, 2, 1)
	if top1 != 50 {
		t.Fatalf("top1 = %g, want 50", top1)
	}
	if top2 != 75 {
		t.Fatalf("top2 = %g, want 75", top2)
	}
}

func randomTensor(rng *stats.RNG, n, c, h, w int) *Tensor {
	x := NewTensor(n, c, h, w)
	for i := range x.Data {
		x.Data[i] = rng.Gaussian(0, 1)
	}
	return x
}

// TestConcurrentInferRaceFree runs parallel inference passes,
// Forward(x, false), on one network under -race: an inference pass writes
// no layer state, which is exactly what makes this legal.
func TestConcurrentInferRaceFree(t *testing.T) {
	rng := stats.NewRNG(12)
	net, err := NewZooModel("ResNet50S", 3, 12, 12, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := randomTensor(rng, 2, 3, 12, 12)
	want := net.Forward(x, false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := net.Forward(x, false)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Errorf("concurrent Forward(x, false) diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInferenceForwardKeepsTrainingState: an inference pass on a batch of
// another size between a training Forward and its Backward must leave the
// recorded state alone, so the parameter gradients equal those of a run
// without it. The zoo covers every layer type.
func TestInferenceForwardKeepsTrainingState(t *testing.T) {
	grads := func(name string, infer bool) [][]float64 {
		t.Helper()
		rng := stats.NewRNG(14)
		net, err := NewZooModel(name, 3, 12, 12, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		x := randomTensor(rng, 4, 3, 12, 12)
		y := randomTensor(rng, 3, 3, 12, 12)
		_, grad := CrossEntropyLoss(net.Forward(x, true), []int{0, 3, 7, 9})
		if infer {
			net.Forward(y, false)
		}
		net.Backward(grad)
		var out [][]float64
		for _, p := range net.Params() {
			out = append(out, p.G)
		}
		return out
	}
	for _, name := range ZooModels() {
		want, got := grads(name, false), grads(name, true)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s: param %d grad %d is %g after an inference pass, want %g", name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestTopKAccuracyWorkerInvariance: the parallel evaluation path must give
// the exact same accuracies as a serial pass.
func TestTopKAccuracyWorkerInvariance(t *testing.T) {
	rng := stats.NewRNG(13)
	net, err := NewZooModel("VGG16S", 3, 12, 12, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := randomTensor(rng, 70, 3, 12, 12)
	labels := make([]int, 70)
	for i := range labels {
		labels[i] = int(rng.Uint64() % 4)
	}
	net.EvalWorkers = 1
	s1, sk := net.TopKAccuracy(x, labels, 2)
	net.EvalWorkers = 8
	p1, pk := net.TopKAccuracy(x, labels, 2)
	if s1 != p1 || sk != pk {
		t.Fatalf("worker count changed the result: serial (%g, %g) vs parallel (%g, %g)", s1, sk, p1, pk)
	}
}
