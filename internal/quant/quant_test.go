package quant

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"optima/internal/core"
	"optima/internal/dataset"
	"optima/internal/device"
	"optima/internal/dnn"
	"optima/internal/mult"
	"optima/internal/stats"
)

var (
	fixtureOnce  sync.Once
	fixtureModel *core.Model
	fixtureErr   error
)

func testModel(t *testing.T) *core.Model {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureModel, fixtureErr = core.Calibrate(core.QuickCalibration())
	})
	if fixtureErr != nil {
		t.Fatalf("calibration fixture: %v", fixtureErr)
	}
	return fixtureModel
}

func TestExactMultiplier(t *testing.T) {
	var e Exact
	if e.Mul(7, -3) != -21 || e.Mul(15, 7) != 105 || e.Mul(0, 5) != 0 {
		t.Fatal("exact multiplier wrong")
	}
}

func TestWeightQuantizationRoundTrip(t *testing.T) {
	w := []float64{-0.7, -0.35, 0, 0.1, 0.7}
	q := QuantizeWeights(w)
	if q.Scale <= 0 {
		t.Fatal("non-positive scale")
	}
	for i, v := range w {
		back := float64(q.Codes[i]) * q.Scale
		if math.Abs(back-v) > q.Scale/2+1e-12 {
			t.Fatalf("weight %g → code %d → %g (scale %g)", v, q.Codes[i], back, q.Scale)
		}
		if q.Codes[i] > WeightMax || q.Codes[i] < -WeightMax {
			t.Fatalf("code %d out of int4 range", q.Codes[i])
		}
	}
	// The max-magnitude weight must map to ±7.
	if q.Codes[0] != -7 || q.Codes[4] != 7 {
		t.Fatalf("extremes map to %d, %d", q.Codes[0], q.Codes[4])
	}
}

// dequantize maps a code back to the real domain.
func dequantize(q ActQuant, c uint8) float64 {
	return float64(int32(c)-q.Zero) * q.Scale
}

func TestActQuantRoundTrip(t *testing.T) {
	q := calibrate(0, 3.0)
	if q.Zero != 0 {
		t.Fatalf("ReLU range zero point = %d, want 0", q.Zero)
	}
	for _, x := range []float64{0, 0.5, 1.5, 3.0} {
		c := q.Quantize(x)
		if c > ActMax {
			t.Fatalf("code %d out of range", c)
		}
		if math.Abs(dequantize(q, c)-x) > q.Scale/2+1e-12 {
			t.Fatalf("x=%g → %d → %g", x, c, dequantize(q, c))
		}
	}
	if q.Quantize(-1) != 0 || q.Quantize(99) != ActMax {
		t.Fatal("clamping broken")
	}
	// Signed range gets a zero point and zero stays exact.
	qs := calibrate(-1, 2)
	if qs.Zero == 0 {
		t.Fatal("signed range needs a zero point")
	}
	if got := dequantize(qs, qs.Quantize(0)); math.Abs(got) > 1e-12 {
		t.Fatalf("zero not exactly representable: %g", got)
	}
}

// Property: quantize→dequantize error is bounded by half a step.
func TestActQuantErrorBoundProperty(t *testing.T) {
	q := calibrate(0, 5)
	f := func(raw uint16) bool {
		x := float64(raw) / 65535 * 5
		back := dequantize(q, q.Quantize(x))
		return math.Abs(back-x) <= q.Scale/2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func tinyTrainedNet(t *testing.T) (*dnn.Network, *dnn.Tensor, []int) {
	t.Helper()
	rng := stats.NewRNG(21)
	cfg := dataset.Config{Name: "tiny", Classes: 4, TrainPerCls: 40, TestPerCls: 10, Noise: 0.05, Seed: 9}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := dnn.NewNetwork("tiny", dataset.Channels, dataset.Height, dataset.Width)
	net.Add(dnn.NewConv2D("c1", 3, 6, 3, rng))
	net.Add(dnn.NewBatchNorm2D("bn1", 6))
	net.Add(dnn.NewReLU("r1"))
	net.Add(dnn.NewMaxPool2("p1"))
	net.Add(dnn.NewGlobalAvgPool("gap"))
	net.Add(dnn.NewDense("fc", 6, 4, rng))
	tc := dnn.TrainConfig{Epochs: 6, BatchSize: 16, LR: 0.08, Momentum: 0.9, Seed: 4}
	if _, err := net.Fit(ds.Train, ds.TrainY, tc); err != nil {
		t.Fatal(err)
	}
	return net, ds.Test, ds.TestY
}

func TestQuantizedNetworkCloseToFloat(t *testing.T) {
	net, test, testY := tinyTrainedNet(t)
	fTop1, _ := net.TopKAccuracy(test, testY, 2)
	calib := dnn.NewTensor(16, test.C, test.H, test.W)
	copy(calib.Data, test.Data[:calib.Len()])
	qnet, err := Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	qTop1, _ := qnet.TopKAccuracy(test, testY, 2)
	if fTop1-qTop1 > 20 {
		t.Fatalf("INT4 dropped %g%% → %g%%", fTop1, qTop1)
	}
}

func TestQuantizedExactVsInMemoryDeterministic(t *testing.T) {
	net, test, testY := tinyTrainedNet(t)
	calib := dnn.NewTensor(16, test.C, test.H, test.W)
	copy(calib.Data, test.Data[:calib.Len()])
	qnet, err := Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	exactTop1, _ := qnet.TopKAccuracy(test, testY, 2)

	m := testModel(t)
	b, err := mult.NewBehavioral(m, mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}, device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewInMemory(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	qnet.Mult = im
	fomTop1, _ := qnet.TopKAccuracy(test, testY, 2)
	if exactTop1-fomTop1 > 25 {
		t.Fatalf("fom corner dropped too much: %g%% → %g%%", exactTop1, fomTop1)
	}
	if im.Ops() == 0 {
		t.Fatal("in-memory multiplier was never used")
	}
}

func TestInMemoryLUTProperties(t *testing.T) {
	m := testModel(t)
	b, err := mult.NewBehavioral(m, mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}, device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewInMemory(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sign symmetry.
	for a := uint8(0); a <= 15; a += 5 {
		for w := int8(1); w <= 7; w += 3 {
			if im.Mul(a, w) != -im.Mul(a, -w) {
				t.Fatalf("sign asymmetry at (%d,%d)", a, w)
			}
		}
	}
	// Zero weight gives exactly zero.
	if im.Mul(9, 0) != 0 {
		t.Fatal("zero weight must produce 0")
	}
	// Deterministic mode: repeated calls agree.
	if im.Mul(7, 5) != im.Mul(7, 5) {
		t.Fatal("deterministic LUT not deterministic")
	}
	// Transfer approximates the product.
	for a := uint8(1); a <= 15; a += 2 {
		for w := int8(1); w <= 7; w += 2 {
			got := im.Mul(a, w)
			want := int32(a) * int32(w)
			if diff := got - want; diff < -12 || diff > 12 {
				t.Fatalf("Mul(%d,%d) = %d, want ≈%d", a, w, got, want)
			}
		}
	}
}

func TestInMemoryNoiseMode(t *testing.T) {
	m := testModel(t)
	b, err := mult.NewBehavioral(m, mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}, device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewInMemory(b, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var acc stats.Accumulator
	for i := 0; i < 500; i++ {
		acc.Add(float64(im.Mul(10, 5)))
	}
	if acc.StdDev() == 0 {
		t.Fatal("noisy LUT produced no spread")
	}
	if math.Abs(acc.Mean()-50) > 6 {
		t.Fatalf("noisy mean %g far from 50", acc.Mean())
	}
}

func TestQATFineTuneImprovesOrKeepsInt4(t *testing.T) {
	net, test, testY := tinyTrainedNet(t)
	rng := stats.NewRNG(77)
	// Build training data for the fine-tune from the same distribution.
	cfg := dataset.Config{Name: "tiny", Classes: 4, TrainPerCls: 40, TestPerCls: 10, Noise: 0.05, Seed: 9}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = rng
	if err := QATFineTune(net, ds.Train, ds.TrainY, DefaultQATConfig()); err != nil {
		t.Fatal(err)
	}
	calib := dnn.NewTensor(16, test.C, test.H, test.W)
	copy(calib.Data, test.Data[:calib.Len()])
	qnet, err := Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	top1, _ := qnet.TopKAccuracy(test, testY, 2)
	if top1 < 50 {
		t.Fatalf("post-QAT INT4 accuracy %g%% too low", top1)
	}
}
