package device

// PMOS models a p-channel transistor by symmetry with the NMOS EKV model:
// a PMOS with source tied near VDD behaves like an NMOS with all terminal
// voltages reflected about the supply. The SRAM cell's pull-up devices are
// the only PMOS instances in the discharge-computing circuits.
type PMOS struct {
	// N is the underlying NMOS-parameterized device; its KP should already
	// include the hole-mobility derating (see NewPMOS).
	N MOSFET
}

// PMOSMobilityRatio derates the transconductance factor for holes relative
// to electrons in the generic 65 nm technology.
const PMOSMobilityRatio = 0.4

// NewPMOS returns a PMOS with the given geometry. The technology card's
// NMOS transconductance is derated by PMOSMobilityRatio.
func NewPMOS(tech Tech, w, l float64) *PMOS {
	t := tech
	t.KPn *= PMOSMobilityRatio
	return &PMOS{N: MOSFET{Tech: t, W: w, L: l}}
}

// Isd returns the source-to-drain current [A] flowing from the higher
// potential terminal into vd, for gate voltage vg and source voltage vs
// (conventionally near VDD). Positive current charges the drain node.
func (p *PMOS) Isd(vg, vd, vs float64, cond PVT) float64 {
	// Reflect about the supply: the PMOS conducts when vg is low.
	return p.N.Ids(cond.VDD-vg, cond.VDD-vd, cond.VDD-vs, cond)
}
