package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"optima/internal/device"
	"optima/internal/spice"
	"optima/internal/stats"
)

var (
	fixtureOnce  sync.Once
	fixtureModel *Model
	fixtureErr   error
)

// testModel calibrates one shared model for the package's tests using the
// reduced grids.
func testModel(t *testing.T) *Model {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureModel, fixtureErr = Calibrate(QuickCalibration())
	})
	if fixtureErr != nil {
		t.Fatalf("calibration fixture: %v", fixtureErr)
	}
	return fixtureModel
}

// TestCalibrationPinned pins the calibrated models bit for bit: the sha256
// of each recipe's JSON model. Every downstream number reads these
// coefficients, so a refactor of the fits must leave both digests as they
// are. Other architectures may fuse multiply-adds (the Go spec allows it),
// which moves the last bits, so the pin holds on amd64 only.
func TestCalibrationPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64, running on %s", runtime.GOARCH)
	}
	def, err := Calibrate(DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model *Model
		want  string
	}{
		{"quick", testModel(t), "d45d47e2bd14bae6a67079e65287b57595cf112893da8ad32e31367b6fc78af5"},
		{"default", def, "ebba52f31091f5b41266a6027f6460d6e9338e12f5afece2ff58b7d0d11e9609"},
	} {
		data, err := json.Marshal(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != tc.want {
			t.Errorf("%s model digest %x, want %s", tc.name, sum, tc.want)
		}
	}
}

func TestCalibrationReportInPaperRegime(t *testing.T) {
	m := testModel(t)
	r := m.Report
	// The paper reports sub-millivolt RMS errors (0.59–0.88 mV). The golden
	// substrate differs, so allow a few millivolt but no worse.
	if r.BaseRMSVolts <= 0 || r.BaseRMSVolts > 3e-3 {
		t.Errorf("base RMS %v outside (0, 3 mV]", r.BaseRMSVolts)
	}
	if r.VDDRMSVolts <= 0 || r.VDDRMSVolts > 8e-3 {
		t.Errorf("VDD RMS %v outside (0, 8 mV]", r.VDDRMSVolts)
	}
	if r.TempRMSVolts <= 0 || r.TempRMSVolts > 5e-3 {
		t.Errorf("temp RMS %v outside (0, 5 mV]", r.TempRMSVolts)
	}
	if r.SigmaRMSVolts <= 0 || r.SigmaRMSVolts > 2e-3 {
		t.Errorf("sigma RMS %v outside (0, 2 mV]", r.SigmaRMSVolts)
	}
	if r.WriteRMSJoules <= 0 || r.WriteRMSJoules > 1e-15 {
		t.Errorf("write RMS %v outside (0, 1 fJ]", r.WriteRMSJoules)
	}
	if r.DischRMSJoules < 0 || r.DischRMSJoules > 1e-15 {
		t.Errorf("discharge RMS %v outside [0, 1 fJ]", r.DischRMSJoules)
	}
	if r.GoldenTransients < 100 {
		t.Errorf("only %d golden transients", r.GoldenTransients)
	}
}

func TestModelMatchesGoldenOutOfGrid(t *testing.T) {
	// Evaluate the model at points that were not on the calibration grid.
	m := testModel(t)
	cond := device.Nominal()
	for _, vwl := range []float64{0.52, 0.67, 0.83, 0.97} {
		dp := spice.NewDischargePath(DefaultCalibration().Tech, vwl, cond)
		res, err := dp.Discharge(2e-9, spice.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, tt := range []float64{0.37e-9, 0.91e-9, 1.73e-9} {
			golden := res.Waveform.NodeAt(0, tt)
			model := m.Discharge.VBL(tt, vwl, cond.VDD, cond.TempC)
			if math.Abs(golden-model) > 5e-3 {
				t.Errorf("VBL(%g ns, %g V): golden %.4f vs model %.4f", tt*1e9, vwl, golden, model)
			}
		}
	}
}

func TestDischargeMonotoneInTimeAndVWL(t *testing.T) {
	m := testModel(t)
	// ΔV grows with time at fixed VWL.
	prev := -1.0
	for _, tt := range []float64{0.2e-9, 0.6e-9, 1.2e-9, 2.0e-9} {
		dv := m.Discharge.DeltaV(tt, 0.9, 1.0, 27)
		if dv < prev {
			t.Fatalf("ΔV not monotone in t at %g", tt)
		}
		prev = dv
	}
	// ΔV grows with VWL at fixed time (above onset).
	prev = -1.0
	for _, vwl := range []float64{0.45, 0.6, 0.75, 0.9} {
		dv := m.Discharge.DeltaV(1e-9, vwl, 1.0, 27)
		if dv < prev {
			t.Fatalf("ΔV not monotone in VWL at %g", vwl)
		}
		prev = dv
	}
}

func TestDeltaVClampsAtZero(t *testing.T) {
	m := testModel(t)
	if dv := m.Discharge.DeltaV(0.1e-9, 0.30, 1.0, 27); dv < 0 {
		t.Fatalf("ΔV = %g, want ≥ 0", dv)
	}
}

func TestSigmaGrowsWithTimeAndVWL(t *testing.T) {
	m := testModel(t)
	if m.Discharge.SigmaAt(2e-9, 1.0) <= m.Discharge.SigmaAt(0.4e-9, 1.0) {
		t.Fatal("σ must grow with time")
	}
	if m.Discharge.SigmaAt(1.5e-9, 1.0) <= m.Discharge.SigmaAt(1.5e-9, 0.5) {
		t.Fatal("σ must grow with VWL (paper Fig. 5d)")
	}
	if m.Discharge.SigmaAt(1e-9, 0.8) < 0 {
		t.Fatal("σ must be non-negative")
	}
}

func TestSigmaMatchesGoldenMC(t *testing.T) {
	m := testModel(t)
	tech := DefaultCalibration().Tech
	cond := device.Nominal()
	rng := stats.NewRNG(31337)
	var acc stats.Accumulator
	const samples = 80
	for i := 0; i < samples; i++ {
		dp := spice.NewDischargePath(tech, 0.85, cond)
		dp.SampleMismatch(rng)
		res, err := dp.Discharge(1.8e-9, spice.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(res.Waveform.Final()[0])
	}
	golden := acc.StdDev()
	model := m.Discharge.SigmaAt(1.8e-9, 0.85)
	if math.Abs(golden-model) > 0.5*golden {
		t.Fatalf("σ golden %.3g vs model %.3g (>50%% apart)", golden, model)
	}
}

func TestSampleVBLDistribution(t *testing.T) {
	m := testModel(t)
	rng := stats.NewRNG(77)
	var acc stats.Accumulator
	for i := 0; i < 5000; i++ {
		acc.Add(m.Discharge.SampleVBL(1.5e-9, 0.9, 1.0, 27, rng))
	}
	wantMean := m.Discharge.VBL(1.5e-9, 0.9, 1.0, 27)
	wantSigma := m.Discharge.SigmaAt(1.5e-9, 0.9)
	if math.Abs(acc.Mean()-wantMean) > 4*wantSigma/math.Sqrt(5000) {
		t.Fatalf("sample mean %g, want %g", acc.Mean(), wantMean)
	}
	if math.Abs(acc.StdDev()-wantSigma) > 0.1*wantSigma {
		t.Fatalf("sample σ %g, want %g", acc.StdDev(), wantSigma)
	}
}

func TestTemperatureShiftsDischarge(t *testing.T) {
	m := testModel(t)
	cold := m.Discharge.VBL(2e-9, 1.0, 1.0, 0)
	hot := m.Discharge.VBL(2e-9, 1.0, 1.0, 80)
	if cold == hot {
		t.Fatal("temperature term has no effect")
	}
	// The effect must be small compared to the discharge itself (Fig. 5b).
	if math.Abs(cold-hot) > 0.1 {
		t.Fatalf("temperature swing %g V too large", math.Abs(cold-hot))
	}
}

func TestVDDShiftsDischarge(t *testing.T) {
	m := testModel(t)
	low := m.Discharge.VBL(1e-9, 0.9, 0.90, 27)
	nom := m.Discharge.VBL(1e-9, 0.9, 1.00, 27)
	high := m.Discharge.VBL(1e-9, 0.9, 1.10, 27)
	if !(low < nom && nom < high) {
		t.Fatalf("VBL should track supply: %g, %g, %g", low, nom, high)
	}
}

func TestWriteEnergyModelAgainstGolden(t *testing.T) {
	m := testModel(t)
	// Compare at an off-grid condition.
	cond := device.PVT{Corner: device.CornerTT, VDD: 0.97, TempC: 33}
	modelE := m.Energy.WriteEnergy(cond.VDD, cond.TempC)
	if modelE < 0.7e-12 || modelE > 1.3e-12 {
		t.Fatalf("modeled write energy %g J outside ~1 pJ regime", modelE)
	}
}

func TestDischargeEnergyProperties(t *testing.T) {
	m := testModel(t)
	if e := m.Energy.DischargeEnergy(false, 1.0, 0.3, 27); e != 0 {
		t.Fatalf("d=0 energy %g, want 0 (no discharge)", e)
	}
	if e := m.Energy.DischargeEnergy(true, 1.0, 0, 27); e != 0 {
		t.Fatalf("zero swing energy %g, want 0", e)
	}
	e1 := m.Energy.DischargeEnergy(true, 1.0, 0.15, 27)
	e2 := m.Energy.DischargeEnergy(true, 1.0, 0.30, 27)
	if !(e2 > e1 && e1 > 0) {
		t.Fatalf("discharge energy not increasing: %g, %g", e1, e2)
	}
	// Physical anchor: E = C_BL·VDD·ΔV = 250 fF × 1 V × 0.3 V = 75 fJ.
	if math.Abs(e2-75e-15) > 8e-15 {
		t.Fatalf("E(0.3 V) = %g J, want ≈75 fJ", e2)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m := testModel(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct{ t, vwl, vdd, tc float64 }{
		{0.5e-9, 0.6, 1.0, 27},
		{1.5e-9, 0.95, 1.05, 60},
	} {
		a := m.Discharge.VBL(probe.t, probe.vwl, probe.vdd, probe.tc)
		b := loaded.Discharge.VBL(probe.t, probe.vwl, probe.vdd, probe.tc)
		if a != b {
			t.Fatalf("round-trip mismatch: %g vs %g", a, b)
		}
	}
	if loaded.Energy.WriteEnergy(1.0, 27) != m.Energy.WriteEnergy(1.0, 27) {
		t.Fatal("energy model round-trip mismatch")
	}
}

func TestLoadModelRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, []byte(`{"version": 99}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bad); err == nil {
		t.Fatal("corrupt model accepted")
	}
	if _, err := LoadModel(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestValidateCatchesBrokenModels(t *testing.T) {
	m := testModel(t)
	broken := *m
	broken.Version = 2
	if err := broken.Validate(); err == nil {
		t.Fatal("wrong version accepted")
	}
	broken = *m
	broken.Discharge.VDDNom = 0
	if err := broken.Validate(); err == nil {
		t.Fatal("zero nominal VDD accepted")
	}
}

func TestSupplyScaledVWL(t *testing.T) {
	if got := SupplyScaledVWL(0.8, device.NominalVDD); got != 0.8 {
		t.Fatalf("nominal scaling changed VWL: %g", got)
	}
	up := SupplyScaledVWL(0.8, 1.1)
	if up <= 0.8 || up >= 0.88 {
		t.Fatalf("partial supply tracking out of range: %g", up)
	}
}

func writeFile(path string, data []byte) error {
	return osWriteFile(path, data)
}

// TestCalibrateWithoutTemperatureSweep: with no off-nominal temperature
// there is no sample for Eq. 5's slope, and Calibrate returns an error
// instead of panicking.
func TestCalibrateWithoutTemperatureSweep(t *testing.T) {
	cfg := QuickCalibration()
	cfg.Temps = []float64{device.NominalTempC}
	if _, err := Calibrate(cfg); err == nil {
		t.Fatal("calibrated a temperature slope without an off-nominal temperature")
	}
}
