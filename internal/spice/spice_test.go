package spice

import (
	"errors"
	"math"
	"testing"

	"optima/internal/device"
	"optima/internal/stats"
)

// rcSystem is an analytically-solvable RC discharge: dv/dt = −v/(RC).
type rcSystem struct{ tau float64 }

func (r rcSystem) Dim() int { return 1 }
func (r rcSystem) Derivatives(_ float64, v, dv []float64) {
	dv[0] = -v[0] / r.tau
}

func TestTransientMatchesAnalyticRC(t *testing.T) {
	sys := rcSystem{tau: 1e-9}
	res, err := Transient(sys, []float64{1}, 0, 3e-9, 1.0, DefaultConfig(), 0.1e-9, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{0.5e-9, 1e-9, 2e-9, 3e-9} {
		got := res.Waveform.NodeAt(0, at)
		want := math.Exp(-at / sys.tau)
		if math.Abs(got-want) > 5e-4 {
			t.Fatalf("v(%g) = %g, want %g", at, got, want)
		}
	}
}

func TestTransientValidation(t *testing.T) {
	sys := rcSystem{tau: 1e-9}
	if _, err := Transient(sys, []float64{1, 2}, 0, 1e-9, 1, DefaultConfig(), 0, nil); err == nil {
		t.Fatal("wrong state size accepted")
	}
	if _, err := Transient(sys, []float64{1}, 1e-9, 1e-9, 1, DefaultConfig(), 0, nil); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestDischargePathMonotone(t *testing.T) {
	dp := NewDischargePath(device.Generic65(), 0.9, device.Nominal())
	res, err := dp.Discharge(2e-9, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	wf := res.Waveform
	if wf.Len() < 10 {
		t.Fatalf("only %d samples", wf.Len())
	}
	prev := math.Inf(1)
	for i := 0; i < wf.Len(); i++ {
		v := wf.V[i][0]
		if v > prev+1e-9 {
			t.Fatalf("BLB voltage increased at sample %d", i)
		}
		prev = v
	}
	if final := wf.Final()[0]; final >= 1.0 || final <= 0 {
		t.Fatalf("final BLB %g out of range", final)
	}
}

func TestDischargeFasterAtHigherVWL(t *testing.T) {
	tech := device.Generic65()
	cond := device.Nominal()
	var prev float64 = 1.1
	for _, vwl := range []float64{0.4, 0.6, 0.8, 1.0} {
		dp := NewDischargePath(tech, vwl, cond)
		res, err := dp.Discharge(1e-9, DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		final := res.Waveform.Final()[0]
		if final >= prev {
			t.Fatalf("VWL %g did not discharge deeper than previous (%g vs %g)", vwl, final, prev)
		}
		prev = final
	}
}

func TestDischargeSupplyLevels(t *testing.T) {
	tech := device.Generic65()
	for _, vdd := range []float64{0.9, 1.1} {
		cond := device.PVT{Corner: device.CornerTT, VDD: vdd, TempC: 27}
		dp := NewDischargePath(tech, 0.8, cond)
		res, err := dp.Discharge(0.2e-9, DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if start := res.Waveform.V[0][0]; math.Abs(start-vdd) > 1e-9 {
			t.Fatalf("precharge level %g, want %g", start, vdd)
		}
	}
}

func TestDischargeMismatchSpread(t *testing.T) {
	tech := device.Generic65()
	cond := device.Nominal()
	rng := stats.NewRNG(42)
	var acc stats.Accumulator
	for i := 0; i < 40; i++ {
		dp := NewDischargePath(tech, 1.0, cond)
		dp.SampleMismatch(rng)
		res, err := dp.Discharge(2e-9, DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(res.Waveform.Final()[0])
	}
	// Fig. 5d regime: a few mV of spread at 2 ns.
	if acc.StdDev() < 1e-3 || acc.StdDev() > 30e-3 {
		t.Fatalf("mismatch spread %g V outside plausible band", acc.StdDev())
	}
}

func TestClearMismatchRestoresNominal(t *testing.T) {
	tech := device.Generic65()
	dp := NewDischargePath(tech, 0.9, device.Nominal())
	ref, err := dp.Discharge(1e-9, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	dp.SampleMismatch(stats.NewRNG(1))
	dp.Access.MM, dp.Driver.MM = device.Mismatch{}, device.Mismatch{}
	res, err := dp.Discharge(1e-9, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Waveform.Final()[0]-ref.Waveform.Final()[0]) > 1e-12 {
		t.Fatal("clearing the mismatch did not restore the nominal device")
	}
}

func TestSRAMWriteFlipsBothWays(t *testing.T) {
	tech := device.Generic65()
	cond := device.Nominal()
	for _, bit := range []bool{false, true} {
		var cw *SRAMCellWrite
		if bit {
			cw = NewSRAMCellWrite(tech, cond.VDD, 0, cond)
		} else {
			cw = NewSRAMCellWrite(tech, 0, cond.VDD, cond)
		}
		ok, res, err := cw.Write(bit, 300e-12, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("write %v did not flip: final %v", bit, res.Waveform.Final())
		}
		if res.SupplyEnergy <= 0 {
			t.Fatalf("write supply energy %g, want positive", res.SupplyEnergy)
		}
	}
}

func TestSRAMHoldIsStable(t *testing.T) {
	// With both bit lines at VDD and the word line low, the cell must hold.
	tech := device.Generic65()
	cond := device.Nominal()
	cw := NewSRAMCellWrite(tech, cond.VDD, cond.VDD, cond)
	cw.VWL = 0 // access transistors off
	res, err := Transient(cw, cw.InitialStateHolding(true), 0, 1e-9, cond.VDD, DefaultConfig(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	final := res.Waveform.Final()
	if final[0] < 0.9*cond.VDD || final[1] > 0.1*cond.VDD {
		t.Fatalf("cell lost its state during hold: %v", final)
	}
}

func TestWaveformInterpolation(t *testing.T) {
	wf := NewWaveform(1)
	wf.Append(0, []float64{0})
	wf.Append(1, []float64{10})
	if got := wf.NodeAt(0, 0.25); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("interp = %g, want 2.5", got)
	}
	if got := wf.NodeAt(0, -5); got != 0 {
		t.Fatalf("clamp low = %g", got)
	}
	if got := wf.NodeAt(0, 5); got != 10 {
		t.Fatalf("clamp high = %g", got)
	}
}

func TestWaveformMonotonicTimeEnforced(t *testing.T) {
	wf := NewWaveform(1)
	wf.Append(1, []float64{0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for decreasing time")
		}
	}()
	wf.Append(0.5, []float64{0})
}

func TestStepBudgetExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSteps = 3
	sys := rcSystem{tau: 1e-9}
	_, err := Transient(sys, []float64{1}, 0, 1e-6, 1, cfg, 0, nil)
	if !errors.Is(err, ErrSteps) {
		t.Fatalf("err = %v, want ErrSteps", err)
	}
}

func TestDeviceEvalsCounted(t *testing.T) {
	dp := NewDischargePath(device.Generic65(), 0.8, device.Nominal())
	res, err := dp.Discharge(0.5e-9, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceEvals < res.Steps*6 {
		t.Fatalf("device evals %d < steps %d × 6", res.DeviceEvals, res.Steps)
	}
}

// badAfter is an RC discharge whose derivative turns to val (NaN or ±Inf)
// from time at onwards.
type badAfter struct{ at, val float64 }

func (b badAfter) Dim() int { return 1 }
func (b badAfter) Derivatives(t float64, v, dv []float64) {
	if t >= b.at {
		dv[0] = b.val
		return
	}
	dv[0] = -v[0] / 1e-9
}

// TestTransientRejectsNonFiniteDerivative pins the non-finite bugfix: a NaN
// or ±Inf stage derivative makes the step's error estimate NaN, which no
// tolerance rejects, so an unchecked integrator accepts the step and
// returns a NaN state with a nil error. It must fail with ErrNonFinite
// instead, having recorded only finite states.
func TestTransientRejectsNonFiniteDerivative(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res, err := Transient(badAfter{at: 0.5e-9, val: bad}, []float64{1}, 0, 1e-9, 1, DefaultConfig(), 0, nil)
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("derivative %g from 0.5 ns: err = %v, want ErrNonFinite", bad, err)
		}
		wf := res.Waveform
		for i, v := range wf.V {
			if math.IsNaN(v[0]) || math.IsInf(v[0], 0) {
				t.Fatalf("derivative %g: non-finite state %g recorded at t=%g", bad, v[0], wf.T[i])
			}
		}
		if last := wf.T[wf.Len()-1]; last >= 0.5e-9 {
			t.Fatalf("derivative %g: a step past 0.5 ns was accepted (t=%g)", bad, last)
		}
	}
}

// perCallPath integrates a DischargePath the way Derivatives read before
// the devices were resolved once per transient: MOSFET.Ids, which resolves
// the condition's terms again on every call.
type perCallPath struct{ *DischargePath }

func (d perCallPath) Dim() int { return 2 }
func (d perCallPath) Derivatives(_ float64, v, dv []float64) {
	vbl, vint := v[0], v[1]
	iAcc := d.Access.Ids(d.VWL, vbl, vint, d.Cond)
	iDrv := d.Driver.Ids(d.Cond.VDD, vint, 0, d.Cond)
	dv[0] = -iAcc / d.CBL
	dv[1] = (iAcc - iDrv) / d.CInt
}

// TestDischargeResolvedMatchesPerCall pins the resolved-terms transient to
// the per-call one bit for bit, over corners, supplies, temperatures and
// word-line voltages. The mismatch and bit-line capacitance are set after
// construction, so the test also shows they are read when the transient
// starts.
func TestDischargeResolvedMatchesPerCall(t *testing.T) {
	tech := device.Generic65()
	rng := stats.NewRNG(7)
	conds := []device.PVT{
		device.Nominal(),
		{Corner: device.CornerSS, VDD: 0.9, TempC: 85},
		{Corner: device.CornerFF, VDD: 1.1, TempC: -20},
	}
	for _, cond := range conds {
		for _, vwl := range []float64{0.3, 0.65, 1.0} {
			dp := NewDischargePath(tech, vwl, cond)
			dp.SampleMismatch(rng)
			dp.CBL = 200e-15
			got, err := dp.Discharge(1.28e-9, DefaultConfig(), 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Transient(perCallPath{dp}, dp.InitialState(), 0, 1.28e-9, cond.VDD, DefaultConfig(), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Steps != want.Steps || got.DeviceEvals != want.DeviceEvals || got.Waveform.Len() != want.Waveform.Len() {
				t.Fatalf("%v vwl=%g: %d steps / %d evals / %d samples, per-call path %d / %d / %d", cond, vwl,
					got.Steps, got.DeviceEvals, got.Waveform.Len(), want.Steps, want.DeviceEvals, want.Waveform.Len())
			}
			for i := range want.Waveform.T {
				g, w := got.Waveform.V[i], want.Waveform.V[i]
				if got.Waveform.T[i] != want.Waveform.T[i] || math.Float64bits(g[0]) != math.Float64bits(w[0]) ||
					math.Float64bits(g[1]) != math.Float64bits(w[1]) {
					t.Fatalf("%v vwl=%g sample %d: (%g, %v), per-call path (%g, %v)", cond, vwl, i,
						got.Waveform.T[i], g, want.Waveform.T[i], w)
				}
			}
		}
	}
}
