package quant

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
	"time"

	"optima/internal/dataset"
	"optima/internal/dnn"
	"optima/internal/stats"
)

// TestTrainingPinned pins the training loop bit for bit: the digest of a
// zoo model after Network.Fit, and again after QATFineTune, on a small
// SynthImageNet slice with fixed seeds. Tables II/III read these weights,
// so an edit of the loop must leave every digest as it is. 80 samples make
// two full batches of 32 and a partial one; the Fit recipe halves its rate
// after the first epoch. Other architectures may fuse multiply-adds, which
// moves the last bits, so the pin holds on amd64 only.
func TestTrainingPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64, running on %s", runtime.GOARCH)
	}
	cfg := dataset.SynthImageNetConfig()
	cfg.TrainPerCls, cfg.TestPerCls = 4, 1
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ model, fit, qat string }{
		{"VGG16S", "45d238fa3a0a306649ecda5a71ad2c7d2f5ea395b07f747eaa8fbe44c15668d7", "5d2bf54613814a56d694be8fbf771a611f1340c972c4e978ef548be03abf0b98"},
		{"ResNet50S", "12b74ddc0f92b8327e01a0ff376eeba6527f8636aa9e19503a715313907a8e67", "fcf309805b8d7e985f5870c7c3034bdf6b39ec291c76ebcdc57ff9bb85cbbc15"},
	} {
		net, err := dnn.NewZooModel(tc.model, dataset.Channels, dataset.Height, dataset.Width, ds.Classes, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		train := dnn.DefaultTrainConfig()
		train.Epochs, train.LRDropEvery = 2, 1
		if _, err := net.Fit(ds.Train, ds.TrainY, train); err != nil {
			t.Fatal(err)
		}
		if got := netDigest(net, ds.Test); got != tc.fit {
			t.Errorf("%s after Fit: digest %s, want %s", tc.model, got, tc.fit)
		}
		qat := DefaultQATConfig()
		qat.Epochs = 1
		if err := QATFineTune(net, ds.Train, ds.TrainY, qat); err != nil {
			t.Fatal(err)
		}
		if got := netDigest(net, ds.Test); got != tc.qat {
			t.Errorf("%s after QATFineTune: digest %s, want %s", tc.model, got, tc.qat)
		}
	}
}

// TestQATFineTuneZeroBatchSize: a zero BatchSize trains in the loop's
// default batches, as Fit does, instead of never leaving its first batch.
func TestQATFineTuneZeroBatchSize(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Name: "tiny", Classes: 2, TrainPerCls: 3, TestPerCls: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := dnn.NewNetwork("tiny", dataset.Channels, dataset.Height, dataset.Width)
	net.Add(dnn.NewGlobalAvgPool("gap"), dnn.NewDense("fc", dataset.Channels, ds.Classes, stats.NewRNG(1)))
	cfg := DefaultQATConfig()
	cfg.BatchSize = 0
	done := make(chan error, 1)
	go func() { done <- QATFineTune(net, ds.Train, ds.TrainY, cfg) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("QATFineTune with BatchSize 0 did not return")
	}
}

// netDigest hashes the network's parameters and its inference logits on x,
// which also read the batch-norm running statistics.
func netDigest(net *dnn.Network, x *dnn.Tensor) string {
	h := sha256.New()
	var buf [8]byte
	put := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, p := range net.Params() {
		put(p.W)
	}
	put(net.Forward(x, false).Data)
	return hex.EncodeToString(h.Sum(nil))
}
