package mult

import (
	"testing"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/spice"
)

// detTestConditions exercises the table at nominal and at a non-nominal
// supply/temperature corner (distinct tables).
func detTestConditions() []device.PVT {
	return []device.PVT{
		device.Nominal(),
		{Corner: device.CornerSS, VDD: 0.9, TempC: 60},
	}
}

// TestMultiplyDetMatchesMultiply pins the fast path's contract: over the
// full input space, at every test condition, with linear and trimmed DACs,
// MultiplyDet returns exactly the Result of Multiply(a, d, nil) — down to
// the last float bit, because the engine's persisted metrics are built on
// that equivalence.
func TestMultiplyDetMatchesMultiply(t *testing.T) {
	model := testModel(t)
	for _, cfg := range []Config{fomConfig(), powerConfig()} {
		for _, cond := range detTestConditions() {
			b, err := NewBehavioral(model, cfg, cond)
			if err != nil {
				t.Fatal(err)
			}
			muls := []*Behavioral{b}
			if dac, err := CalibrateNonlinearDAC(model, cfg); err == nil {
				nl, err := b.WithNonlinearDAC(dac)
				if err != nil {
					t.Fatal(err)
				}
				muls = append(muls, nl)
			}
			for mi, m := range muls {
				for a := uint(0); a <= OperandMax; a++ {
					for d := uint(0); d <= OperandMax; d++ {
						want, err := m.Multiply(a, d, nil)
						if err != nil {
							t.Fatal(err)
						}
						got, err := m.MultiplyDet(a, d)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("cfg %v cond %+v mul %d: MultiplyDet(%d,%d) =\n%+v, Multiply gives\n%+v",
								cfg, cond, mi, a, d, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMultiplyDetFallback: a Behavioral assembled without NewBehavioral has
// no table; MultiplyDet must still answer (via direct model evaluation)
// rather than misbehave.
func TestMultiplyDetFallback(t *testing.T) {
	b := &Behavioral{
		Model: testModel(t), Cfg: fomConfig(), Cond: device.Nominal(),
		LSBVolt: 1e-3,
	}
	got, err := b.MultiplyDet(9, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := b.multiplyDirect(9, 7, nil)
	if got != want {
		t.Fatalf("table-less MultiplyDet = %+v, direct path gives %+v", got, want)
	}
}

// TestMultiplyDetStaleTableFallback: mutating Cond after construction must
// not serve the old condition's table.
func TestMultiplyDetStaleTableFallback(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	b.Cond.VDD = 0.9
	got, err := b.MultiplyDet(15, 15)
	if err != nil {
		t.Fatal(err)
	}
	want := b.multiplyDirect(15, 15, nil)
	if got != want {
		t.Fatalf("stale-table MultiplyDet = %+v, direct path gives %+v", got, want)
	}
}

// TestMultiplyDetRangeChecked mirrors TestOperandRangeChecked for the fast
// path.
func TestMultiplyDetRangeChecked(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.MultiplyDet(16, 3); err == nil {
		t.Fatal("a = 16 accepted")
	}
	if _, err := b.MultiplyDet(3, 16); err == nil {
		t.Fatal("d = 16 accepted")
	}
}

var detSink Result

// TestMultiplyDetZeroAlloc is the hot-loop guarantee the engine's
// Behavioral backend relies on: one deterministic multiplication allocates
// nothing (the event-kernel path pays a simulator, signals and closures per
// call).
func TestMultiplyDetZeroAlloc(t *testing.T) {
	b, err := NewBehavioral(testModel(t), fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	a, d := uint(0), uint(0)
	allocs := testing.AllocsPerRun(1000, func() {
		detSink, _ = b.MultiplyDet(a, d)
		a = (a + 1) & OperandMax
		d = (d + 5) & OperandMax
	})
	if allocs != 0 {
		t.Fatalf("MultiplyDet allocates %.1f objects per call, want 0", allocs)
	}
}

// TestNewBehavioralSharesNominalTable: at the nominal condition the trim
// table and the evaluation table are one allocation, and a non-nominal
// condition gets its own.
func TestNewBehavioralSharesNominalTable(t *testing.T) {
	model := testModel(t)
	b, err := NewBehavioral(model, fomConfig(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if b.det == nil || b.det.vdd != device.NominalVDD {
		t.Fatalf("nominal multiplier has table %+v", b.det)
	}
	cond := device.PVT{Corner: device.CornerTT, VDD: 0.9, TempC: 85}
	b2, err := NewBehavioral(model, fomConfig(), cond)
	if err != nil {
		t.Fatal(err)
	}
	if b2.det == nil || b2.det.vdd != 0.9 || b2.det.tempC != 85 {
		t.Fatalf("corner multiplier has table for wrong condition: %+v", b2.det)
	}
	// Same trim either way: the fit always runs at nominal.
	if b.LSBVolt != b2.LSBVolt || b.OffsetVolt != b2.OffsetVolt {
		t.Fatalf("trim differs across conditions: (%g,%g) vs (%g,%g)",
			b.LSBVolt, b.OffsetVolt, b2.LSBVolt, b2.OffsetVolt)
	}
}

// TestDetTableAgainstModel spot-checks the table contents against direct
// model calls — the table is a cache, never an approximation.
func TestDetTableAgainstModel(t *testing.T) {
	model := testModel(t)
	cond := device.PVT{Corner: device.CornerFF, VDD: 1.1, TempC: 0}
	b, err := NewBehavioral(model, fomConfig(), cond)
	if err != nil {
		t.Fatal(err)
	}
	tab := b.det
	for a := uint(0); a <= OperandMax; a++ {
		vwl := b.wordLineVoltage(a, cond.VDD)
		if tab.vwl[a] != vwl {
			t.Fatalf("vwl[%d] = %g, model gives %g", a, tab.vwl[a], vwl)
		}
		for i := 0; i < OperandBits; i++ {
			bt := b.Cfg.BitTime(i)
			dv := cond.VDD - model.Discharge.VBL(bt, vwl, cond.VDD, cond.TempC)
			if dv < 0 {
				dv = 0
			}
			if tab.dv[a][i] != dv {
				t.Fatalf("dv[%d][%d] = %g, model gives %g", a, i, tab.dv[a][i], dv)
			}
			if sig := model.Discharge.SigmaAt(bt, vwl); tab.sigma[a][i] != sig {
				t.Fatalf("sigma[%d][%d] = %g, model gives %g", a, i, tab.sigma[a][i], sig)
			}
			if e := model.Energy.DischargeEnergy(true, cond.VDD, dv, cond.TempC); tab.energy[a][i] != e {
				t.Fatalf("energy[%d][%d] = %g, model gives %g", a, i, tab.energy[a][i], e)
			}
		}
	}
}

// BenchmarkMultiplyDet measures the deterministic fast path against the
// event-kernel and direct paths it replaces on the engine's hot loop.
func BenchmarkMultiplyDet(b *testing.B) {
	model, err := core.Calibrate(core.QuickCalibration())
	if err != nil {
		b.Fatal(err)
	}
	bm, err := NewBehavioral(model, fomConfig(), device.Nominal())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("det", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			detSink, _ = bm.MultiplyDet(uint(i)&OperandMax, uint(i>>4)&OperandMax)
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			detSink = bm.multiplyDirect(uint(i)&OperandMax, uint(i>>4)&OperandMax, nil)
		}
	})
	b.Run("events", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			detSink, _ = bm.multiplyEvents(uint(i)&OperandMax, uint(i>>4)&OperandMax, nil)
		}
	})
}

// TestGoldenTableMatchesMultiplyCells is the golden twin of
// TestMultiplyDetMatchesMultiply: over the full input space, for both test
// configurations at every test condition, the 16×4 matched-cell table
// composes exactly the Result of MultiplyCells(a, d, nil, scr) — every field
// to the last bit — except Transients, which is 0 because the table already
// ran them. The engine's golden Metrics and the corner check rest on this.
func TestGoldenTableMatchesMultiplyCells(t *testing.T) {
	if testing.Short() {
		t.Skip("golden backend is slow")
	}
	tech := core.QuickCalibration().Tech
	scfg := spice.DefaultConfig()
	for _, cfg := range []Config{fomConfig(), powerConfig()} {
		trim, err := CalibrateGoldenTrim(tech, cfg, scfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cond := range detTestConditions() {
			g, err := NewGoldenWithTrim(tech, cfg, cond, scfg, trim)
			if err != nil {
				t.Fatal(err)
			}
			table, err := g.Table(0)
			if err != nil {
				t.Fatal(err)
			}
			var scr spice.Scratch
			for a := uint(0); a <= OperandMax; a++ {
				for d := uint(0); d <= OperandMax; d++ {
					want, err := g.MultiplyCells(a, d, nil, &scr)
					if err != nil {
						t.Fatal(err)
					}
					got, err := table.Multiply(a, d)
					if err != nil {
						t.Fatal(err)
					}
					if want.Transients != popcount(d) || got.Transients != 0 {
						t.Fatalf("cfg %v cond %v (%d,%d): %d transients per pair, %d from the table",
							cfg, cond, a, d, want.Transients, got.Transients)
					}
					want.Transients = 0
					if got != want {
						t.Fatalf("cfg %v cond %v: table (%d,%d) =\n%+v, MultiplyCells gives\n%+v",
							cfg, cond, a, d, got, want)
					}
				}
			}
		}
	}
}

// TestGoldenTableWorkerInvariant: the table fills fixed (code, bit) slots,
// so it is identical serial and fanned out.
func TestGoldenTableWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("golden backend is slow")
	}
	g, err := NewGolden(core.QuickCalibration().Tech, fomConfig(), device.Nominal(), spice.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := g.Table(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := g.Table(4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.dv != parallel.dv {
		t.Fatalf("table at 4 workers differs from serial:\n%v\n%v", parallel.dv, serial.dv)
	}
	if _, err := serial.Multiply(16, 3); err == nil {
		t.Fatal("a = 16 accepted")
	}
	if _, err := serial.Multiply(3, 16); err == nil {
		t.Fatal("d = 16 accepted")
	}
}
