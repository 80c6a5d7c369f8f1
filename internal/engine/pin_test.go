package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/quant"
	"optima/internal/spice"
	"optima/internal/sram"
	"optima/internal/stats"
)

// pin folds values into a sha256 bit for bit.
type pin struct{ hash.Hash }

func (p pin) words(ws ...uint64) {
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		p.Write(b[:])
	}
}

func (p pin) floats(xs ...float64) {
	for _, x := range xs {
		p.words(math.Float64bits(x))
	}
}

func (p pin) result(r mult.Result) {
	p.words(uint64(r.A), uint64(r.D), uint64(r.Expected), uint64(r.Code), uint64(r.Transients))
	p.floats(r.VComb, r.Sigma, r.Energy)
	p.floats(r.DeltaV[:]...)
}

func (p pin) metrics(m engine.Metrics) {
	p.floats(m.EpsMul, m.EpsLarge, m.EpsSmall, m.EMul, m.SigmaMaxLSB, m.SigmaMaxVolt, m.LSBVolt)
}

// TestMultiplierPinned pins every product path of both multipliers bit for
// bit: the sha256 of the behavioral MultiplyDet, Multiply(nil) and
// Multiply(rng) over the input space (three configurations at three
// conditions), the INT4 LUT, the dot product, the nonlinear DAC, the golden
// table and MultiplyCells with and without mismatch, and both backends'
// Metrics. A refactor of the readout must leave the digest as it is. Like
// TestCalibrationPinned it holds on amd64 only, where no multiply-add is
// fused.
func TestMultiplierPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64, running on %s", runtime.GOARCH)
	}
	model := modelFixture(t)
	calib := core.QuickCalibration()
	p := pin{sha256.New()}
	cfgs := []mult.Config{
		{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0},
		{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 0.7},
		{Tau0: 0.28e-9, VDAC0: 0.5, VDACFS: 0.8},
	}
	conds := []device.PVT{device.Nominal(),
		{Corner: device.CornerSS, VDD: 0.9, TempC: 60}, {Corner: device.CornerFF, VDD: 1.1, TempC: 0}}
	mul := func(f func(a, d uint) (mult.Result, error)) {
		t.Helper()
		for a := uint(0); a <= mult.OperandMax; a++ {
			for d := uint(0); d <= mult.OperandMax; d++ {
				r, err := f(a, d)
				if err != nil {
					t.Fatal(err)
				}
				p.result(r)
			}
		}
	}
	behavioral := engine.Behavioral{Model: model}
	for _, cfg := range cfgs {
		for _, cond := range conds {
			b, err := mult.NewBehavioral(model, cfg, cond)
			if err != nil {
				t.Fatal(err)
			}
			p.floats(b.LSBVolt)
			mul(b.MultiplyDet)
			mul(func(a, d uint) (mult.Result, error) { return b.Multiply(a, d, nil) })
			rng := stats.NewRNG(7)
			mul(func(a, d uint) (mult.Result, error) { return b.Multiply(a, d, rng) })
			m, err := behavioral.Evaluate(cfg, cond)
			if err != nil {
				t.Fatal(err)
			}
			p.metrics(m)
		}
	}

	b, err := mult.NewBehavioral(model, cfgs[0], conds[1])
	if err != nil {
		t.Fatal(err)
	}
	lut, err := quant.NewInMemory(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for a := range lut.Mean {
		p.floats(lut.Mean[a][:]...)
		p.floats(lut.Sigma[a][:]...)
	}
	dot := mult.NewDotProduct(b)
	rng := stats.NewRNG(11)
	for _, r := range []*stats.RNG{nil, rng, rng} {
		res, err := dot.Compute([]uint{15, 3, 9, 0, 7, 12}, []uint{15, 11, 6, 8, 0, 13}, r)
		if err != nil {
			t.Fatal(err)
		}
		p.words(uint64(res.Expected), uint64(res.Code), uint64(res.K))
		p.floats(res.VAcc, res.Sigma, res.Energy)
	}
	dac, err := mult.CalibrateNonlinearDAC(model, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	p.floats(dac.Levels[:]...)
	nl, err := b.WithNonlinearDAC(dac)
	if err != nil {
		t.Fatal(err)
	}
	p.floats(nl.LSBVolt)
	mul(nl.MultiplyDet)
	mul(func(a, d uint) (mult.Result, error) { return nl.Multiply(a, d, rng) })

	// Golden: one corner at two conditions shares a trim and a memo, as in
	// the engine's golden backend.
	traj := spice.NewTrajectories()
	lsb, err := mult.CalibrateGoldenTrim(calib.Tech, cfgs[0], calib.Spice, traj, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.floats(lsb)
	p.words(mult.TrimTransients)
	for _, cond := range conds[:2] {
		g := &mult.Golden{Tech: calib.Tech, Cfg: cfgs[0], Cond: cond, Spice: calib.Spice, LSBVolt: lsb, Trajectories: traj}
		table, err := g.Table(1)
		if err != nil {
			t.Fatal(err)
		}
		mul(table.Multiply)
		var scr spice.Scratch
		cellRNG := stats.NewRNG(3)
		for _, pair := range [][2]uint{{15, 15}, {9, 7}, {1, 14}, {12, 0}} {
			r, err := g.MultiplyCells(pair[0], pair[1], nil, &scr)
			if err != nil {
				t.Fatal(err)
			}
			p.result(r)
			var cells sram.Word
			cells.SampleMismatch(calib.Tech, cellRNG)
			if r, err = g.MultiplyCells(pair[0], pair[1], &cells, &scr); err != nil {
				t.Fatal(err)
			}
			p.result(r)
		}
	}
	golden := engine.NewGoldenBackend(calib.Tech, calib.Spice)
	for _, cond := range conds[:2] {
		m, err := golden.EvaluateBudget(cfgs[0], cond, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.metrics(m)
	}

	const want = "c1a24eea4aaedfe71cb0f601d51be88005cebd8811302d7e343e15e7cd0e0481"
	if got := hex.EncodeToString(p.Sum(nil)); got != want {
		t.Fatalf("multiplier digest %s, want %s", got, want)
	}
}
