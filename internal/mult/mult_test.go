package mult

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/spice"
	"optima/internal/sram"
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

func fomConfig() Config   { return Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0} }
func powerConfig() Config { return Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 0.7} }

func TestConfigValidate(t *testing.T) {
	if err := fomConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Tau0: 0, VDAC0: 0.3, VDACFS: 1},
		{Tau0: 1e-10, VDAC0: 1.0, VDACFS: 0.7},
		{Tau0: 1e-10, VDAC0: -0.1, VDACFS: 0.7},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %+v accepted", c)
		}
	}
}

func TestDACVoltageEndpoints(t *testing.T) {
	c := fomConfig()
	if got := c.DACVoltage(0, device.NominalVDD); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("DAC(0) = %g, want 0.3", got)
	}
	if got := c.DACVoltage(15, device.NominalVDD); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("DAC(15) = %g, want 1.0", got)
	}
	// Supply tracking is partial.
	up := c.DACVoltage(15, 1.1)
	if up <= 1.0 || up >= 1.1 {
		t.Fatalf("DAC(15) at 1.1 V = %g, want in (1.0, 1.1)", up)
	}
}

func TestBitTimes(t *testing.T) {
	c := fomConfig()
	for i, want := range []float64{0.16e-9, 0.32e-9, 0.64e-9, 1.28e-9} {
		if got := c.BitTime(i); math.Abs(got-want) > 1e-21 {
			t.Fatalf("BitTime(%d) = %g, want %g", i, got, want)
		}
	}
	if c.MaxTime() != c.BitTime(3) {
		t.Fatal("MaxTime must be the MSB time")
	}
}

func TestBehavioralZeroOperands(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]uint{{0, 0}, {7, 0}, {15, 0}} {
		r, err := b.Multiply(pair[0], pair[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Code != 0 {
			t.Fatalf("(%d,%d) → code %d, want 0 (no discharge for d=0)", pair[0], pair[1], r.Code)
		}
		if r.Energy <= 0 {
			t.Fatal("peripheral energy must still be paid")
		}
	}
	// a=0 at VDAC0=0.3 is near the conduction onset: small code.
	r, err := b.Multiply(0, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Code > 16 {
		t.Fatalf("(0,15) → code %d, want small", r.Code)
	}
}

func TestBehavioralFullScaleAccuracy(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.Multiply(15, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := r.ErrorLSB(); e < -12 || e > 12 {
		t.Fatalf("(15,15) error %d LSB too large", e)
	}
}

func TestBehavioralAverageErrorRegime(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	var acc stats.Accumulator
	for a := uint(0); a <= 15; a++ {
		for d := uint(0); d <= 15; d++ {
			r, err := b.Multiply(a, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			e := float64(r.ErrorLSB())
			acc.Add(math.Abs(e))
		}
	}
	// The paper's Table I corners sit at ϵ ∈ [4.78, 15]; our substrate is a
	// little more accurate. Fail if wildly off in either direction.
	if acc.Mean() > 8 || acc.Mean() < 0.1 {
		t.Fatalf("deterministic ϵ̄ = %.2f LSB outside plausible regime", acc.Mean())
	}
}

func TestEventAndDirectPathsAgree(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	for a := uint(0); a <= 15; a += 3 {
		for d := uint(0); d <= 15; d += 3 {
			b.UseEvents = true
			ev, err := b.Multiply(a, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			b.UseEvents = false
			dir, err := b.Multiply(a, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Code != dir.Code || math.Abs(ev.VComb-dir.VComb) > 1e-15 ||
				math.Abs(ev.Energy-dir.Energy) > 1e-21 {
				t.Fatalf("(%d,%d): event %+v vs direct %+v", a, d, ev, dir)
			}
		}
	}
}

func TestOperandRangeChecked(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Multiply(16, 3, nil); err == nil {
		t.Fatal("oversized operand accepted")
	}
}

func TestMismatchSamplingChangesResults(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	det, err := b.Multiply(9, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	var acc stats.Accumulator
	for i := 0; i < 400; i++ {
		r, err := b.Multiply(9, 11, rng)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(r.VComb)
	}
	if acc.StdDev() <= 0 {
		t.Fatal("sampling produced no spread")
	}
	if math.Abs(acc.Mean()-det.VComb) > 5*acc.StdDev()/math.Sqrt(400) {
		t.Fatalf("MC mean %g far from deterministic %g", acc.Mean(), det.VComb)
	}
}

func TestSigmaScalesWithBitWeight(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	// d=8 (MSB only, longest discharge) must be noisier than d=1.
	r1, err := b.Multiply(15, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := b.Multiply(15, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Sigma <= r1.Sigma {
		t.Fatalf("σ(msb) %g should exceed σ(lsb) %g", r8.Sigma, r1.Sigma)
	}
}

func TestEnergyTrends(t *testing.T) {
	m := testModel(t)
	bFull, err := NewBehavioral(m, fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	bLow, err := NewBehavioral(m, powerConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	eFull := avgEnergy(t, bFull)
	eLow := avgEnergy(t, bLow)
	if eLow >= eFull {
		t.Fatalf("lower full-scale should cost less: %g vs %g", eLow, eFull)
	}
	// Larger τ0 costs more.
	bSlow, err := NewBehavioral(m, Config{Tau0: 0.28e-9, VDAC0: 0.3, VDACFS: 1.0}, device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if avgEnergy(t, bSlow) <= eFull {
		t.Fatal("larger τ0 should cost more energy")
	}
}

func avgEnergy(t *testing.T, b *Behavioral) float64 {
	t.Helper()
	var acc stats.Accumulator
	for a := uint(0); a <= 15; a++ {
		for d := uint(0); d <= 15; d++ {
			r, err := b.Multiply(a, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(r.Energy)
		}
	}
	return acc.Mean()
}

func TestWriteEnergyAroundOnePicojoule(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	e := b.WriteEnergy()
	if e < 0.7e-12 || e > 1.4e-12 {
		t.Fatalf("write energy %g J, want ≈1 pJ", e)
	}
}

func TestGoldenAgreesWithBehavioral(t *testing.T) {
	if testing.Short() {
		t.Skip("golden backend is slow")
	}
	m := testModel(t)
	cfg := fomConfig()
	cond := device.Nominal()
	b, err := NewBehavioral(m, cfg, cond)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGolden(core.QuickCalibration().Tech, cfg, cond, spice.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	transients := 0
	for _, pair := range [][2]uint{{3, 5}, {8, 8}, {15, 15}, {1, 14}, {12, 2}} {
		rb, err := b.Multiply(pair[0], pair[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := g.MultiplyCells(pair[0], pair[1], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if diff := rb.Code - rg.Code; diff < -6 || diff > 6 {
			t.Errorf("(%d,%d): behavioral %d vs golden %d", pair[0], pair[1], rb.Code, rg.Code)
		}
		if want := popcount(pair[1]); rg.Transients != want {
			t.Errorf("(%d,%d): %d transients, want %d (one per set d-bit)", pair[0], pair[1], rg.Transients, want)
		}
		transients += rg.Transients
	}
	if transients == 0 {
		t.Fatal("golden backend did not count transients")
	}
}

func popcount(d uint) int {
	n := 0
	for ; d != 0; d >>= 1 {
		n += int(d & 1)
	}
	return n
}

func TestGoldenMismatchShiftsResult(t *testing.T) {
	if testing.Short() {
		t.Skip("golden backend is slow")
	}
	g, err := NewGolden(core.QuickCalibration().Tech, fomConfig(), device.Nominal(), spice.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := g.MultiplyCells(9, 9, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cells sram.Word
	cells.SampleMismatch(core.QuickCalibration().Tech, stats.NewRNG(3))
	shifted, err := g.MultiplyCells(9, 9, &cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.VComb == ref.VComb {
		t.Fatal("mismatch had no effect on the golden result")
	}
	cells = sram.Word{}
	restored, err := g.MultiplyCells(9, 9, &cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(restored.VComb-ref.VComb) > 1e-12 {
		t.Fatal("matched cells did not restore the nominal result")
	}
}

// TestGoldenConcurrentMultiplyDeterministic pins the tentpole contract at
// the mult layer: one shared Golden receiver, concurrent MultiplyCells
// calls with per-worker scratch, results identical to the serial path.
func TestGoldenConcurrentMultiplyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("golden backend is slow")
	}
	g, err := NewGolden(core.QuickCalibration().Tech, fomConfig(), device.Nominal(), spice.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]uint{{1, 1}, {3, 7}, {9, 9}, {15, 15}, {2, 13}, {11, 4}, {7, 7}, {5, 10}}
	serial := make([]Result, len(pairs))
	for i, p := range pairs {
		r, err := g.MultiplyCells(p[0], p[1], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	parallel := make([]Result, len(pairs))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scr spice.Scratch
			for i := w; i < len(pairs); i += 4 {
				r, err := g.MultiplyCells(pairs[i][0], pairs[i][1], nil, &scr)
				if err != nil {
					t.Error(err)
					return
				}
				parallel[i] = r
			}
		}(w)
	}
	wg.Wait()
	for i := range pairs {
		if serial[i] != parallel[i] {
			t.Fatalf("pair %v: concurrent result %+v differs from serial %+v", pairs[i], parallel[i], serial[i])
		}
	}
}

// Property: deterministic codes are within the ADC range and weakly
// monotone in d for fixed a (more stored ones → more discharge).
func TestCodeMonotoneInD(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw uint8) bool {
		a := uint(aRaw) % 16
		prev := -1
		for d := uint(0); d <= 15; d++ {
			r, err := b.Multiply(a, d, nil)
			if err != nil {
				return false
			}
			if r.Code < 0 || r.Code > ADCMax {
				return false
			}
			if r.Code < prev {
				return false
			}
			prev = r.Code
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}
