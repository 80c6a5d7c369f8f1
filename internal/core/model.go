// Package core implements the paper's primary contribution: OPTIMA's
// parameterized behavioral models for 6T-SRAM bit-line discharge and energy
// (Eq. 3–8), their least-squares calibration against golden circuit
// simulation data, and the fast PVT/mismatch-aware evaluation the
// multiplier runs at its bit lines' sampling instants.
//
// Model structure (paper Section IV):
//
//	Eq. 3  V_BL(t, V_WL)            = VDD + p4(Vod)·p2(t),  Vod = V_WL − Vth
//	Eq. 4  V_BL(t, V_WL, VDD)       = V_BL(t, V_WL) · p2(ΔVDD)
//	Eq. 5  V_BL(t, V_WL, VDD, T)    = … + t·(T − Tnom)·p3(V_WL)
//	Eq. 6  σ(t, V_WL)               = p3(t)·p3(V_WL)          (mismatch)
//	Eq. 7  E_wr(VDD, T)             = p2(VDD)·p1(T)
//	Eq. 8  E_dc(d, VDD, V_WL, T)    = p1(VDD)·p3(ΔV_BL)·p1(T)
//
// All polynomial coefficients are obtained by least-squares fits to golden
// simulation sweeps (package spice), all through package poly: the
// products of Eq. 3, 6, 7 and 8 by its one alternating-least-squares loop
// (FitSeparable, FitProduct), the single factors of Eq. 4 and 5 by its one
// weighted solve (FitWeighted) with the model fitted so far as the weight
// or offset. Time enters the models in nanoseconds and voltages in volts so
// that the fitted coefficients are well scaled.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"optima/internal/device"
	"optima/internal/poly"
)

// ErrModel is returned for structurally invalid models.
var ErrModel = errors.New("core: invalid model")

// timeScale converts seconds to the nanosecond units used inside the fits.
const timeScale = 1e9

// WLSupplySensitivity is the fraction of a relative supply excursion that
// appears on the word-line DAC output. The DACs share the array's rail but
// are referenced to a bandgap-derived mid-scale, so their outputs track the
// supply only partially (the paper: "supply voltage changes do not only
// affect the SRAM circuit, but also the thresholds of ADCs and DACs").
const WLSupplySensitivity = 0.22

// SupplyScaledVWL returns the effective word-line voltage for a nominal DAC
// code voltage under a supply excursion. Both the golden supply sweeps and
// the behavioral evaluation use this convention.
func SupplyScaledVWL(vwlNominal, vdd float64) float64 {
	return vwlNominal * (1 + WLSupplySensitivity*(vdd-device.NominalVDD)/device.NominalVDD)
}

// DischargeModel is the calibrated OPTIMA bit-line discharge model
// (Eq. 3–6). The zero value is unusable; obtain instances from Calibrate or
// LoadModel.
type DischargeModel struct {
	// VthRef is the overdrive reference: Vod = V_WL − VthRef.
	VthRef float64 `json:"vth_ref"`
	// VDDNom and TnomC anchor the variation terms.
	VDDNom float64 `json:"vdd_nom"`
	TnomC  float64 `json:"tnom_c"`
	// Base is Eq. 3: ΔV-part of V_BL as PX(Vod)·PY(t_ns).
	Base poly.Separable `json:"base"`
	// VDDFactor is Eq. 4's p2(ΔVDD).
	VDDFactor poly.Polynomial `json:"vdd_factor"`
	// TempSlope is Eq. 5's p3(V_WL); the additive term is
	// t_ns·(T−Tnom)·TempSlope(V_WL).
	TempSlope poly.Polynomial `json:"temp_slope"`
	// Sigma is Eq. 6: σ(t,V_WL) = PX(t_ns)·PY(V_WL).
	Sigma poly.Separable `json:"sigma"`
}

// VBLBase evaluates Eq. 3 at nominal supply and temperature.
func (m *DischargeModel) VBLBase(t, vwl float64) float64 {
	return m.VBLEq3(t, vwl, m.VDDNom)
}

// VBLEq3 evaluates Eq. 3 with the given supply as the additive rail term
// (the paper's Eq. 3 literally reads V_BL = VDD + p4(Vod)·p2(t), with VDD
// the actual supply: the bit line is pre-charged to the rail).
func (m *DischargeModel) VBLEq3(t, vwl, vdd float64) float64 {
	vod := vwl - m.VthRef
	return vdd + m.Base.PX.Eval(vod)*m.Base.PY.Eval(t*timeScale)
}

// VBL evaluates the full deterministic discharge model (Eq. 3–5) at time t
// [s], word-line voltage vwl [V], supply vdd [V] and temperature tempC [°C].
// Following the paper's iterative construction, the base model is anchored
// at the nominal supply and the multiplicative p2(ΔVDD) factor carries the
// entire supply dependence.
func (m *DischargeModel) VBL(t, vwl, vdd, tempC float64) float64 {
	v := m.VBLBase(t, vwl)
	v *= m.VDDFactor.Eval(vdd - m.VDDNom)
	v += t * timeScale * (tempC - m.TnomC) * m.TempSlope.Eval(vwl)
	return v
}

// DeltaV returns the modeled discharge VDD_effective − V_BL, clamped to be
// non-negative (the bit line cannot charge above the rail).
func (m *DischargeModel) DeltaV(t, vwl, vdd, tempC float64) float64 {
	d := vdd - m.VBL(t, vwl, vdd, tempC)
	if d < 0 {
		return 0
	}
	return d
}

// SigmaAt evaluates Eq. 6, the mismatch-induced standard deviation of the
// bit-line voltage at time t [s] and word-line voltage vwl [V]. The value is
// clamped to be non-negative (polynomial fits can dip below zero at the
// domain edges).
func (m *DischargeModel) SigmaAt(t, vwl float64) float64 {
	s := m.Sigma.PX.Eval(t*timeScale) * m.Sigma.PY.Eval(vwl)
	if s < 0 {
		return 0
	}
	return s
}

// SampleVBL draws one mismatch-perturbed bit-line voltage, following the
// paper's Monte-Carlo procedure: the Gaussian with σ from Eq. 6 is sampled
// for each discharge.
func (m *DischargeModel) SampleVBL(t, vwl, vdd, tempC float64, rng device.Gaussianer) float64 {
	return rng.Gaussian(m.VBL(t, vwl, vdd, tempC), m.SigmaAt(t, vwl))
}

// EnergyModel is the calibrated OPTIMA energy model (Eq. 7–8).
type EnergyModel struct {
	// Write is Eq. 7: E_wr(VDD, T) = PX(VDD)·PY(T) [J] for a full word.
	Write poly.Separable `json:"write"`
	// Discharge is Eq. 8: E_dc = P0(VDD)·P1(ΔV_BL)·P2(T) [J] per bit line.
	Discharge poly.Product `json:"discharge"`
}

// WriteEnergy evaluates Eq. 7 [J].
func (m *EnergyModel) WriteEnergy(vdd, tempC float64) float64 {
	return m.Write.PX.Eval(vdd) * m.Write.PY.Eval(tempC)
}

// DischargeEnergy evaluates Eq. 8 [J] for a single bit line recharge after a
// discharge of deltaV. A stored '0' (d = false) causes no discharge and no
// energy, as in the paper.
func (m *EnergyModel) DischargeEnergy(d bool, vdd, deltaV, tempC float64) float64 {
	if !d || deltaV <= 0 {
		return 0
	}
	return m.Discharge.Eval(vdd, deltaV, tempC)
}

// Model bundles the calibrated discharge and energy models together with
// fit diagnostics. This is the artifact OPTIMA produces and consumes.
type Model struct {
	// Version identifies the serialization schema.
	Version int `json:"version"`
	// Technology note for provenance (e.g. "generic-65nm").
	Technology string         `json:"technology"`
	Discharge  DischargeModel `json:"discharge"`
	Energy     EnergyModel    `json:"energy"`
	// Report carries the RMS fit errors (the paper's Fig. 6 numbers).
	Report FitReport `json:"report"`
}

// ModelVersion is the current serialization schema version.
const ModelVersion = 1

// FitReport holds the RMS modeling errors against golden simulation, in the
// same categories the paper reports: basic discharge, supply-voltage model,
// temperature model, mismatch σ, write energy and discharge energy.
// Paper values: 0.76 mV, 0.88 mV, 0.76 mV, 0.59 mV, 0.15 fJ, 0.74 fJ.
type FitReport struct {
	BaseRMSVolts   float64 `json:"base_rms_v"`
	VDDRMSVolts    float64 `json:"vdd_rms_v"`
	TempRMSVolts   float64 `json:"temp_rms_v"`
	SigmaRMSVolts  float64 `json:"sigma_rms_v"`
	WriteRMSJoules float64 `json:"write_rms_j"`
	DischRMSJoules float64 `json:"disch_rms_j"`
	// GoldenTransients counts the circuit simulations used for calibration.
	GoldenTransients int `json:"golden_transients"`
}

// String summarizes the report in the paper's units.
func (r FitReport) String() string {
	return fmt.Sprintf(
		"base %.2f mV, VDD %.2f mV, temp %.2f mV, sigma %.2f mV, write %.3f fJ, discharge %.3f fJ (%d golden transients)",
		r.BaseRMSVolts*1e3, r.VDDRMSVolts*1e3, r.TempRMSVolts*1e3, r.SigmaRMSVolts*1e3,
		r.WriteRMSJoules*1e15, r.DischRMSJoules*1e15, r.GoldenTransients)
}

// Validate checks structural invariants of a deserialized model.
func (m *Model) Validate() error {
	if m.Version != ModelVersion {
		return fmt.Errorf("core: model version %d, want %d: %w", m.Version, ModelVersion, ErrModel)
	}
	if len(m.Discharge.Base.PX.Coeffs) == 0 || len(m.Discharge.Base.PY.Coeffs) == 0 {
		return fmt.Errorf("core: missing base discharge polynomials: %w", ErrModel)
	}
	if len(m.Discharge.Sigma.PX.Coeffs) == 0 || len(m.Discharge.Sigma.PY.Coeffs) == 0 {
		return fmt.Errorf("core: missing mismatch polynomials: %w", ErrModel)
	}
	if len(m.Energy.Write.PX.Coeffs) == 0 || len(m.Energy.Discharge.Factors) == 0 {
		return fmt.Errorf("core: missing energy polynomials: %w", ErrModel)
	}
	if m.Discharge.VDDNom <= 0 {
		return fmt.Errorf("core: non-positive nominal VDD: %w", ErrModel)
	}
	for _, c := range m.Discharge.Base.PX.Coeffs {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("core: non-finite coefficient: %w", ErrModel)
		}
	}
	return nil
}

// Save writes the model as JSON to path.
func (m *Model) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("core: marshal model: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadModel reads and validates a model from a JSON file.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read model: %w", err)
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: parse model: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
