package exp

import (
	"fmt"

	"optima/internal/dataset"
	"optima/internal/device"
	"optima/internal/dnn"
	"optima/internal/dse"
	"optima/internal/mult"
	"optima/internal/quant"
	"optima/internal/refdata"
	"optima/internal/report"
	"optima/internal/sched"
	"optima/internal/stats"
)

// DNNScale controls the size of the application-analysis protocol
// (Section VI / Tables II and III).
type DNNScale struct {
	// Models to evaluate, in Table II order.
	Models []string
	// VGGEpochs / ResNetEpochs set the pretraining budgets.
	VGGEpochs, ResNetEpochs int
	// TransferEpochs sets the CIFAR fine-tuning budget after the head swap.
	TransferEpochs int
	// QATEpochs sets the post-quantization retraining budget.
	QATEpochs int
	// TestCap limits the evaluated test samples (0 = all).
	TestCap int
	// NoisyLUT samples per-operation mismatch in the in-memory multiplier
	// instead of using the deterministic transfer (extension/ablation; the
	// tables' protocol uses the deterministic transfer).
	NoisyLUT bool
	Seed     uint64
}

// FullDNNScale is the full Table II/III protocol.
func FullDNNScale() DNNScale {
	return DNNScale{
		Models:    dnn.ZooModels(),
		VGGEpochs: 8, ResNetEpochs: 12,
		TransferEpochs: 6, QATEpochs: 2,
		Seed: 11,
	}
}

// BenchDNNScale is a reduced protocol for the benchmark harness: two
// models, short budgets, capped test sets. Same schema, smaller numbers.
func BenchDNNScale() DNNScale {
	return DNNScale{
		Models:    []string{"VGG16S", "ResNet50S"},
		VGGEpochs: 2, ResNetEpochs: 3,
		TransferEpochs: 2, QATEpochs: 1,
		TestCap: 120,
		Seed:    11,
	}
}

// DNNRow is one measured row of Table II or III.
type DNNRow struct {
	Model         string
	MultsMillions float64
	Float32       [2]float64 // top-1, top-5
	Int4          [2]float64
	Fom           [2]float64
	Power         [2]float64
	Variation     [2]float64
}

// DNNData holds the measured application analysis.
type DNNData struct {
	ImageNet []DNNRow
	CIFAR    []DNNRow
	Table2   *report.Table
	Table3   *report.Table
}

// RunDNN executes the paper's application analysis: pretrain on the
// ImageNet substitute, quantize to INT4 with retraining, inject the three
// multiplier corners, then transfer-learn to the CIFAR substitute and
// repeat the evaluation.
func (c *Context) RunDNN(scale DNNScale) (*DNNData, error) {
	sel, err := c.Selection()
	if err != nil {
		return nil, err
	}
	imagenet, err := dataset.Generate(dataset.SynthImageNetConfig())
	if err != nil {
		return nil, err
	}
	cifar, err := dataset.Generate(dataset.SynthCIFARConfig())
	if err != nil {
		return nil, err
	}
	capDataset(imagenet, scale.TestCap)
	capDataset(cifar, scale.TestCap)

	// Per-model fan-out on the shared scheduler: each model trains and
	// evaluates independently; results come back in Models order. The
	// session's worker budget is split between the two nesting levels —
	// models outside, evaluation batches inside — so total concurrency
	// stays ≈ Workers rather than Workers².
	_, inner, _ := sched.Split(c.Workers, len(scale.Models))
	type modelResult struct {
		imagenet, cifar DNNRow
	}
	results, err := sched.Map(c.Workers, scale.Models, func(_ int, name string) (modelResult, error) {
		img, cif, err := c.runOneModel(name, scale, sel, imagenet, cifar, inner)
		return modelResult{imagenet: img, cifar: cif}, err
	})
	if err != nil {
		return nil, err
	}

	out := &DNNData{}
	for _, r := range results {
		out.ImageNet = append(out.ImageNet, r.imagenet)
		out.CIFAR = append(out.CIFAR, r.cifar)
	}
	out.Table2 = dnnTable("Table II — SynthImageNet classification accuracies (paper rows: real ImageNet)",
		out.ImageNet, refdata.Table2ImageNet(), true)
	out.Table3 = dnnTable("Table III — SynthCIFAR classification accuracies (paper rows: real CIFAR-10)",
		out.CIFAR, refdata.Table3CIFAR(), false)
	return out, nil
}

func capDataset(ds *dataset.Dataset, testCap int) {
	if testCap <= 0 || ds.Test.N <= testCap {
		return
	}
	feat := ds.Test.FeatureLen()
	trimmed := dnn.NewTensor(testCap, ds.Test.C, ds.Test.H, ds.Test.W)
	copy(trimmed.Data, ds.Test.Data[:testCap*feat])
	ds.Test = trimmed
	ds.TestY = ds.TestY[:testCap]
}

// runOneModel executes the full protocol for one network. evalWorkers
// bounds the quantized-evaluation fan-out within this model.
func (c *Context) runOneModel(name string, scale DNNScale, sel dse.Selection, imagenet, cifar *dataset.Dataset, evalWorkers int) (DNNRow, DNNRow, error) {
	rng := stats.NewRNG(scale.Seed)
	net, err := dnn.NewZooModel(name, dataset.Channels, dataset.Height, dataset.Width, imagenet.Classes, rng)
	if err != nil {
		return DNNRow{}, DNNRow{}, err
	}
	cfg := dnn.DefaultTrainConfig()
	cfg.Seed = scale.Seed
	cfg.Epochs = scale.VGGEpochs
	if name == "ResNet50S" || name == "ResNet101S" {
		cfg.Epochs = scale.ResNetEpochs
		cfg.LRDropEvery = 5
	}
	if _, err := net.Fit(imagenet.Train, imagenet.TrainY, cfg); err != nil {
		return DNNRow{}, DNNRow{}, err
	}

	imgRow, err := c.evaluateAllModes(name, net, scale, sel, evalWorkers, imagenet.Train, imagenet.TrainY, imagenet.Test, imagenet.TestY)
	if err != nil {
		return DNNRow{}, DNNRow{}, err
	}

	// Transfer learning (the paper's CIFAR protocol): swap the head of the
	// ImageNet-trained network, as evaluateAllModes left it, for a 10-class
	// dense layer, then fine-tune the whole network briefly.
	if err := net.ReplaceHead(cifar.Classes, rng); err != nil {
		return DNNRow{}, DNNRow{}, err
	}
	tCfg := cfg
	tCfg.Epochs = scale.TransferEpochs
	if _, err := net.Fit(cifar.Train, cifar.TrainY, tCfg); err != nil {
		return DNNRow{}, DNNRow{}, err
	}
	cifRow, err := c.evaluateAllModes(name, net, scale, sel, evalWorkers, cifar.Train, cifar.TrainY, cifar.Test, cifar.TestY)
	if err != nil {
		return DNNRow{}, DNNRow{}, err
	}
	return imgRow, cifRow, nil
}

// evaluateAllModes measures FLOAT32, INT4, and the three corner modes for
// a trained network. The network is QAT-fine-tuned and batch-norm-folded in
// place (evaluation order matters: float first).
func (c *Context) evaluateAllModes(name string, net *dnn.Network, scale DNNScale, sel dse.Selection,
	evalWorkers int, trainX *dnn.Tensor, trainY []int, testX *dnn.Tensor, testY []int) (DNNRow, error) {
	row := DNNRow{Model: name, MultsMillions: float64(net.MACsPerInference()) / 1e6}
	// Float evaluation fans out on the inference pass, Forward(x, false),
	// under the same per-model worker split as the quantized modes below.
	net.EvalWorkers = evalWorkers
	row.Float32[0], row.Float32[1] = net.TopKAccuracy(testX, testY, 5)

	// The paper's "retraining procedures ... to mitigate the impact of
	// quantization".
	qatCfg := quant.DefaultQATConfig()
	qatCfg.Epochs = scale.QATEpochs
	qatCfg.Seed = scale.Seed
	if err := quant.QATFineTune(net, trainX, trainY, qatCfg); err != nil {
		return row, err
	}
	calibN := 64
	if calibN > trainX.N {
		calibN = trainX.N
	}
	calib := dnn.NewTensor(calibN, trainX.C, trainX.H, trainX.W)
	copy(calib.Data, trainX.Data[:calibN*trainX.FeatureLen()])
	qnet, err := quant.Quantize(net, calib)
	if err != nil {
		return row, err
	}
	qnet.Workers = evalWorkers
	row.Int4[0], row.Int4[1] = qnet.TopKAccuracy(testX, testY, 5)

	corners := []struct {
		cfg  mult.Config
		dest *[2]float64
	}{
		{sel.FOM.Config, &row.Fom},
		{sel.Power.Config, &row.Power},
		{sel.Variation.Config, &row.Variation},
	}
	for _, corner := range corners {
		b, err := mult.NewBehavioral(c.Model, corner.cfg, device.Nominal())
		if err != nil {
			return row, err
		}
		var rng *stats.RNG
		if scale.NoisyLUT {
			rng = stats.NewRNG(scale.Seed ^ 0xabcdef)
		}
		im, err := quant.NewInMemory(b, rng)
		if err != nil {
			return row, err
		}
		qnet.Mult = im
		corner.dest[0], corner.dest[1] = qnet.TopKAccuracy(testX, testY, 5)
	}
	return row, nil
}

// dnnTable renders measured rows interleaved with the paper's, mirroring
// the Table II/III schema.
func dnnTable(title string, rows []DNNRow, paper []refdata.DNNRow, withTop5 bool) *report.Table {
	var t *report.Table
	if withTop5 {
		t = report.NewTable(title,
			"model", "mults", "FLOAT32 t1", "t5", "INT4 t1", "t5", "fom t1", "t5", "power t1", "t5", "variation t1", "t5")
	} else {
		t = report.NewTable(title,
			"model", "FLOAT32 t1", "INT4 t1", "fom t1", "power t1", "variation t1")
	}
	paperByModel := map[string]refdata.DNNRow{}
	for _, p := range paper {
		paperByModel[p.Model] = p
	}
	for _, r := range rows {
		base := paperModelName(r.Model)
		if p, ok := paperByModel[base]; ok {
			if withTop5 {
				t.AddRow(base+" (paper)", fmt.Sprintf("%.2f G", p.MultsBillions),
					p.Float32Top1, p.Float32Top5, p.Int4Top1, p.Int4Top5,
					p.FomTop1, p.FomTop5, p.PowerTop1, p.PowerTop5,
					p.VariationTop1, p.VariationTop5)
			} else {
				t.AddRow(base+" (paper)", p.Float32Top1, p.Int4Top1, p.FomTop1, p.PowerTop1, p.VariationTop1)
			}
		}
		if withTop5 {
			t.AddRow(r.Model+" (measured)", fmt.Sprintf("%.2f M", r.MultsMillions),
				r.Float32[0], r.Float32[1], r.Int4[0], r.Int4[1],
				r.Fom[0], r.Fom[1], r.Power[0], r.Power[1],
				r.Variation[0], r.Variation[1])
		} else {
			t.AddRow(r.Model+" (measured)", r.Float32[0], r.Int4[0], r.Fom[0], r.Power[0], r.Variation[0])
		}
	}
	return t
}

// paperModelName maps a scaled zoo model to its paper counterpart.
func paperModelName(scaled string) string {
	switch scaled {
	case "VGG16S":
		return "VGG16"
	case "VGG19S":
		return "VGG19"
	case "ResNet50S":
		return "ResNet50"
	case "ResNet101S":
		return "ResNet101"
	default:
		return scaled
	}
}
