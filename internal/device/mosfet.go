// Package device implements the compact MOSFET model and
// process/voltage/temperature (PVT) machinery that stand in for the TSMC
// 65 nm SPICE models used by the paper's golden circuit simulations.
//
// The transistor model is an EKV-style charge-sheet interpolation: a single
// smooth expression covers subthreshold conduction (the paper's "non-zero
// source-drain current at Vth", Section III-1), square-law saturation, and
// the triode/linear region the pass transistor enters when the bit line
// discharges below V_WL − Vth (Eq. 2). Temperature scales both the threshold
// voltage and the mobility; process corners shift Vth and the transconductance
// factor; transistor mismatch follows the Pelgrom model (σ_Vth ∝ 1/√(W·L)).
package device

import (
	"fmt"
	"math"
	"strings"
)

// Physical constants.
const (
	// BoltzmannOverQ is k/q in V/K: thermal voltage Vt = (k/q)·T.
	BoltzmannOverQ = 8.617333262e-5
	// ZeroCelsius converts °C to K.
	ZeroCelsius = 273.15
)

// ProcessCorner identifies a global process corner.
type ProcessCorner int

// Process corners. TT is typical; FF is fast (low Vth, high mobility);
// SS is slow. The single-letter pairs follow foundry convention
// (NMOS corner, PMOS corner); this model applies them symmetrically.
const (
	CornerTT ProcessCorner = iota
	CornerFF
	CornerSS
)

// String returns the foundry-style corner name.
func (c ProcessCorner) String() string {
	switch c {
	case CornerTT:
		return "TT"
	case CornerFF:
		return "FF"
	case CornerSS:
		return "SS"
	default:
		return fmt.Sprintf("ProcessCorner(%d)", int(c))
	}
}

// Corners lists all modeled process corners, nominal first.
func Corners() []ProcessCorner { return []ProcessCorner{CornerTT, CornerFF, CornerSS} }

// ParseCorner is the inverse of ProcessCorner.String: it resolves a foundry-
// style corner name (case-insensitively) to the modeled corner, erroring on
// anything Corners does not list.
func ParseCorner(name string) (ProcessCorner, error) {
	for _, c := range Corners() {
		if strings.EqualFold(name, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("device: unknown process corner %q (want TT, FF or SS)", name)
}

// PVT captures one operating condition: process corner, supply voltage and
// temperature. The zero value is not meaningful; use Nominal.
type PVT struct {
	Corner ProcessCorner
	VDD    float64 // supply voltage [V]
	TempC  float64 // junction temperature [°C]
}

// Nominal operating condition for the generic 65 nm technology:
// typical corner, VDD = 1.0 V, T = 27 °C.
func Nominal() PVT {
	return PVT{Corner: CornerTT, VDD: NominalVDD, TempC: NominalTempC}
}

// Nominal supply and temperature of the generic 65 nm technology.
const (
	NominalVDD   = 1.0  // V
	NominalTempC = 27.0 // °C
)

// TempK returns the junction temperature in kelvin.
func (p PVT) TempK() float64 { return p.TempC + ZeroCelsius }

// Vt returns the thermal voltage kT/q at this condition.
func (p PVT) Vt() float64 { return BoltzmannOverQ * p.TempK() }

// String formats the condition compactly, e.g. "TT/1.00V/27.0C".
func (p PVT) String() string {
	return fmt.Sprintf("%s/%.2fV/%.1fC", p.Corner, p.VDD, p.TempC)
}

// Tech holds the technology parameters of the generic 65 nm process.
// All values are nominal (TT, 27 °C) and are modulated by PVT and mismatch.
type Tech struct {
	Vth0      float64 // nominal NMOS threshold voltage [V]
	KPn       float64 // NMOS transconductance factor µ·Cox [A/V²]
	N         float64 // subthreshold slope factor
	Lambda    float64 // channel-length modulation [1/V]
	VCrit     float64 // velocity-saturation voltage E_crit·L [V]
	TempVth   float64 // dVth/dT [V/K] (negative)
	MobExp    float64 // mobility temperature exponent: µ ∝ (T/Tnom)^−MobExp
	CornerVth float64 // Vth shift magnitude for FF/SS corners [V]
	CornerKP  float64 // relative KP shift for FF/SS corners
	AVth      float64 // Pelgrom Vth-mismatch coefficient [V·µm]
	ABeta     float64 // Pelgrom current-factor mismatch coefficient [µm]
}

// Generic65 returns the generic 65 nm low-power technology card used
// throughout the repository. The values are chosen so the golden simulator's
// discharge behavior lands in the paper's reported ranges (see DESIGN.md §5):
// ≈0.3 V/ns bit-line slope at V_WL = 1 V with C_BL = 250 fF, ≈150 fJ
// single-cell discharge energy at 2 ns, ±20 mV mismatch band over
// 1000 samples.
func Generic65() Tech {
	return Tech{
		// Standard-VT 65 nm flavour: conduction onset sits just below the
		// DSE's V_DAC,0 grid (0.3–0.5 V), so the '0' input code of a
		// V_DAC,0 = 0.3 V design barely conducts (the asymmetry of Section
		// III-1) while higher V_DAC,0 values pay a growing data-dependent
		// offset — the trade the paper's Fig. 7/8 explore.
		Vth0:      0.25,
		KPn:       650e-6,
		N:         1.05,
		Lambda:    0.06,
		VCrit:     0.045,
		TempVth:   -0.9e-3,
		MobExp:    1.3,
		CornerVth: 0.030,
		CornerKP:  0.10,
		// Mismatch coefficients are tuned so a 1000-sample Monte Carlo of the
		// bit-line discharge reproduces the paper's Fig. 5d spread
		// (≈ −10…+20 mV at t = 2 ns, growing with V_WL): σ_Vth ≈ 2 mV and
		// σ_β ≈ 0.5 % for the cell's access device.
		AVth:  1.10e-3, // V·µm
		ABeta: 0.001,   // µm
	}
}

// Mismatch holds the per-instance random deviations of one transistor.
// A zero Mismatch is the nominal (matched) device.
type Mismatch struct {
	DVth  float64 // threshold-voltage shift [V]
	DBeta float64 // relative current-factor shift (e.g. +0.01 = +1%)
}

// MOSFET is one NMOS transistor instance with geometry and its local
// mismatch state. PMOS devices are modeled by symmetry (swapped terminal
// conventions) where needed by the SRAM cell.
type MOSFET struct {
	Tech Tech
	W    float64 // channel width [m]
	L    float64 // channel length [m]
	MM   Mismatch
}

// NewMOSFET returns a matched transistor with the given geometry.
func NewMOSFET(tech Tech, w, l float64) *MOSFET {
	return &MOSFET{Tech: tech, W: w, L: l}
}

// SigmaVth returns the Pelgrom threshold mismatch standard deviation for
// this geometry: A_Vth / sqrt(W·L), with W, L in µm.
func (m *MOSFET) SigmaVth() float64 {
	wUm, lUm := m.W*1e6, m.L*1e6
	return m.Tech.AVth / math.Sqrt(wUm*lUm)
}

// SigmaBeta returns the relative current-factor mismatch standard deviation.
func (m *MOSFET) SigmaBeta() float64 {
	wUm, lUm := m.W*1e6, m.L*1e6
	return m.Tech.ABeta / math.Sqrt(wUm*lUm)
}

// Gaussianer is the minimal sampling interface device needs from an RNG.
type Gaussianer interface {
	Gaussian(mean, sigma float64) float64
}

// SampleMismatch draws a fresh mismatch state for this device geometry.
func (m *MOSFET) SampleMismatch(rng Gaussianer) Mismatch {
	return Mismatch{
		DVth:  rng.Gaussian(0, m.SigmaVth()),
		DBeta: rng.Gaussian(0, m.SigmaBeta()),
	}
}

// Vth returns the effective threshold voltage at the given condition,
// including corner shift, temperature drift and local mismatch.
func (m *MOSFET) Vth(p PVT) float64 {
	vth := m.Tech.Vth0 + m.Tech.TempVth*(p.TempC-NominalTempC) + m.MM.DVth
	switch p.Corner {
	case CornerFF:
		vth -= m.Tech.CornerVth
	case CornerSS:
		vth += m.Tech.CornerVth
	}
	return vth
}

// Beta returns the effective transconductance factor β = KP·W/L at the
// given condition, including mobility temperature scaling, corner shift and
// local mismatch.
func (m *MOSFET) Beta(p PVT) float64 {
	beta := m.Tech.KPn * m.W / m.L
	beta *= math.Pow(p.TempK()/(NominalTempC+ZeroCelsius), -m.Tech.MobExp)
	switch p.Corner {
	case CornerFF:
		beta *= 1 + m.Tech.CornerKP
	case CornerSS:
		beta *= 1 - m.Tech.CornerKP
	}
	return beta * (1 + m.MM.DBeta)
}

// Resolved is one transistor's condition-dependent model terms at one
// operating condition: β (with its mobility-temperature power), Vth and the
// thermal voltage, folded with the technology constants the drain-current
// expression reads. A transient that evaluates a device thousands of times
// at one condition resolves it once (see MOSFET.Resolve) and calls
// Resolved.Ids, the model's one EKV expression.
type Resolved struct {
	beta, vth float64 // current factor and threshold at the condition
	nvt2      float64 // 2·n·Vt, the overdrive interpolation's scale [V]
	vc        float64 // velocity-saturation voltage [V]
	lambda    float64 // channel-length modulation [1/V]
}

// Resolve returns the device's model terms at condition p. Mismatch is read
// now, so resolve after setting MM.
func (m *MOSFET) Resolve(p PVT) Resolved {
	return Resolved{
		beta:   m.Beta(p),
		vth:    m.Vth(p),
		nvt2:   2 * m.Tech.N * p.Vt(),
		vc:     m.Tech.VCrit,
		lambda: m.Tech.Lambda,
	}
}

// Ids returns the drain-source current [A] for the given terminal voltages
// (all node-to-ground, source-referenced internally) at condition p. It is
// m.Resolve(p).Ids; callers that evaluate one device many times at one
// condition should resolve once.
func (m *MOSFET) Ids(vg, vd, vs float64, p PVT) float64 {
	return m.Resolve(p).Ids(vg, vd, vs)
}

// overdrive returns the smooth overdrive Vov and the velocity-saturated
// drain saturation voltage Vdsat for gate vg over source vs.
func (r Resolved) overdrive(vg, vs float64) (vov, vdsat float64) {
	// Smooth overdrive: exponential below threshold, linear above.
	u := (vg - vs - r.vth) / r.nvt2
	if u > 40 {
		vov = r.nvt2 * u
	} else {
		vov = r.nvt2 * math.Log1p(math.Exp(u))
	}
	return vov, r.vc * (math.Sqrt(1+2*vov/r.vc) - 1)
}

// Ids returns the drain-source current [A] for the given terminal voltages
// (all node-to-ground, source-referenced internally).
//
// The model is a velocity-saturated unified square-law (BSIM-flavoured) with
// a smooth EKV-style overdrive interpolation:
//
//	Vov   = 2·n·Vt·ln(1 + e^((Vgs−Vth)/(2·n·Vt)))   (→ exponential subthreshold)
//	Vdsat = Vc·(√(1 + 2·Vov/Vc) − 1),  Vc = E_crit·L (velocity saturation)
//	Id    = β·(Vov·Vds − Vds²/2)/(1 + Vds/Vc)             for Vds < Vdsat
//	Id    = β·(Vov·Vdsat − Vdsat²/2)/(1 + Vdsat/Vc)·(1 + λ·(Vds−Vdsat))  else
//
// Velocity saturation keeps Vdsat in the 0.2–0.3 V range typical of 65 nm
// devices, so the pass transistor remains current-source-like over deep
// bit-line discharges — the property that makes the paper's rank-1
// separable discharge model (Eq. 3) accurate — while the triode transition
// of Eq. 2 still produces the compression visible at the largest products.
func (r Resolved) Ids(vg, vd, vs float64) float64 {
	if vd < vs { // enforce source/drain ordering; NMOS is symmetric
		return -r.Ids(vg, vs, vd)
	}
	vov, vdsat := r.overdrive(vg, vs)
	vc := r.vc
	vds := vd - vs
	if vds < vdsat {
		return r.beta * (vov*vds - 0.5*vds*vds) / (1 + vds/vc)
	}
	isat := r.beta * (vov*vdsat - 0.5*vdsat*vdsat) / (1 + vdsat/vc)
	return isat * (1 + r.lambda*(vds-vdsat))
}
