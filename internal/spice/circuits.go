package spice

import (
	"optima/internal/device"
)

// Geometry of the generic 65 nm 6T cell (meters). The access device is
// drawn slightly narrower than the pull-down per standard 6T read-stability
// ratioing; the pull-up is minimal.
const (
	AccessW   = 0.18e-6
	AccessL   = 0.065e-6
	PullDownW = 0.30e-6
	PullDownL = 0.065e-6
	PullUpW   = 0.10e-6
	PullUpL   = 0.065e-6
)

// Default capacitances: the bit line is shared by a 256-row sub-array
// (≈ 250 fF including wire and drain junctions); cell internal nodes and
// the stack's intermediate node are small.
const (
	DefaultCBL  = 250e-15
	DefaultCInt = 1.5e-15
	DefaultCQ   = 1.2e-15
)

// DischargePath is the two-transistor stack that discharges the BLB during
// an in-SRAM multiplication: the access transistor M6 (gate driven by the
// word line at the DAC output voltage) in series with the cell's pull-down
// M4 (gate at the internal '1' node, i.e. at VDD). State vector:
//
//	v[0] = V_BLB (bit-line-bar voltage)
//	v[1] = V_int (node between M6 and M4)
//
// A cell storing '0' never turns M4 on, so the path only exists for d = 1;
// callers model d = 0 as "no discharge" exactly as the paper does. The
// fields stay settable until a transient starts (Discharge).
type DischargePath struct {
	Access *device.MOSFET // M6: gate = WL
	Driver *device.MOSFET // M4: gate = VDD ('1' stored)
	CBL    float64        // bit-line capacitance [F]
	CInt   float64        // intermediate node capacitance [F]
	VWL    float64        // word-line (DAC output) voltage [V]
	Cond   device.PVT
}

// NewDischargePath builds the default-geometry discharge path for the given
// word-line voltage and condition.
func NewDischargePath(tech device.Tech, vwl float64, cond device.PVT) *DischargePath {
	return &DischargePath{
		Access: device.NewMOSFET(tech, AccessW, AccessL),
		Driver: device.NewMOSFET(tech, PullDownW, PullDownL),
		CBL:    DefaultCBL,
		CInt:   DefaultCInt,
		VWL:    vwl,
		Cond:   cond,
	}
}

// resolvedPath is the System one discharge transient integrates: the path
// with both devices resolved at its condition, so the 12 drain-current
// evaluations of each RK45 step skip the condition-dependent terms (β's
// mobility-temperature power, Vth, Vt).
type resolvedPath struct {
	acc, drv            device.Resolved
	vwl, vdd, cbl, cint float64
}

// resolve snapshots the path's devices, capacitances and voltages. It runs
// when a transient starts, not at construction: callers set mismatch
// (sram.Cell.DischargePath, SampleMismatch) and capacitances afterwards.
func (d *DischargePath) resolve() *resolvedPath {
	return &resolvedPath{
		acc: d.Access.Resolve(d.Cond), drv: d.Driver.Resolve(d.Cond),
		vwl: d.VWL, vdd: d.Cond.VDD, cbl: d.CBL, cint: d.CInt,
	}
}

// Dim implements System.
func (r *resolvedPath) Dim() int { return 2 }

// Derivatives implements System.
func (r *resolvedPath) Derivatives(_ float64, v, dv []float64) {
	vbl, vint := v[0], v[1]
	iAcc := r.acc.Ids(r.vwl, vbl, vint) // BLB → internal node
	iDrv := r.drv.Ids(r.vdd, vint, 0)   // internal node → GND
	dv[0] = -iAcc / r.cbl
	dv[1] = (iAcc - iDrv) / r.cint
}

// InitialState returns the pre-charged state: BLB at VDD, stack node at 0.
func (d *DischargePath) InitialState() []float64 {
	return []float64{d.Cond.VDD, 0}
}

// Discharge runs the transient for the given duration and returns the
// result. The caller reads V_BLB(t) from the waveform (node 0).
func (d *DischargePath) Discharge(duration float64, cfg Config, sampleEvery float64) (*Result, error) {
	return d.DischargeScratch(duration, cfg, sampleEvery, nil)
}

// DischargeScratch is Discharge with caller-owned integrator work buffers —
// workers that run many discharges back to back pass their own Scratch to
// avoid reallocating the stage vectors per transient. A nil scr allocates
// per call. The devices are resolved at d.Cond once, as the transient
// starts.
func (d *DischargePath) DischargeScratch(duration float64, cfg Config, sampleEvery float64, scr *Scratch) (*Result, error) {
	return TransientScratch(d.resolve(), d.InitialState(), 0, duration, d.Cond.VDD, cfg, sampleEvery, scr)
}

// SampleMismatch draws fresh mismatch for both stack transistors.
func (d *DischargePath) SampleMismatch(rng device.Gaussianer) {
	d.Access.MM = d.Access.SampleMismatch(rng)
	d.Driver.MM = d.Driver.SampleMismatch(rng)
}

// ClearMismatch restores matched devices.
func (d *DischargePath) ClearMismatch() {
	d.Access.MM = device.Mismatch{}
	d.Driver.MM = device.Mismatch{}
}

// SRAMCellWrite models the write transient of a full 6T cell with the bit
// lines driven to rails by an ideal write driver. State vector:
//
//	v[0] = V_Q, v[1] = V_QB
//
// The supply current through the two pull-ups is reported for energy
// integration, capturing the short-circuit component during the cell flip
// (this is what gives the write energy its mild temperature dependence,
// fitted by the paper's Eq. 7).
type SRAMCellWrite struct {
	PDL, PDR *device.MOSFET // pull-downs (gates cross-coupled)
	PUL, PUR *device.PMOS   // pull-ups (gates cross-coupled)
	AXL, AXR *device.MOSFET // access transistors
	CQ       float64        // internal node capacitance [F]
	VBL      float64        // bit-line voltage forced by the write driver
	VBLB     float64        // bit-line-bar voltage forced by the write driver
	VWL      float64        // word-line voltage
	Cond     device.PVT
}

// NewSRAMCellWrite builds the default-geometry cell with the given forced
// bit-line voltages and full-VDD word line.
func NewSRAMCellWrite(tech device.Tech, vbl, vblb float64, cond device.PVT) *SRAMCellWrite {
	return &SRAMCellWrite{
		PDL:  device.NewMOSFET(tech, PullDownW, PullDownL),
		PDR:  device.NewMOSFET(tech, PullDownW, PullDownL),
		PUL:  device.NewPMOS(tech, PullUpW, PullUpL),
		PUR:  device.NewPMOS(tech, PullUpW, PullUpL),
		AXL:  device.NewMOSFET(tech, AccessW, AccessL),
		AXR:  device.NewMOSFET(tech, AccessW, AccessL),
		CQ:   DefaultCQ,
		VBL:  vbl,
		VBLB: vblb,
		VWL:  cond.VDD,
		Cond: cond,
	}
}

// Dim implements System.
func (c *SRAMCellWrite) Dim() int { return 2 }

// Derivatives implements System.
func (c *SRAMCellWrite) Derivatives(_ float64, v, dv []float64) {
	q, qb := v[0], v[1]
	// Left half drives Q: pull-up and pull-down gated by QB; access to BL.
	iPUL := c.PUL.Isd(qb, q, c.Cond.VDD, c.Cond)
	iPDL := c.PDL.Ids(qb, q, 0, c.Cond)
	iAXL := c.AXL.Ids(c.VWL, c.VBL, q, c.Cond) // BL → Q when VBL > Q
	// Right half drives QB symmetrically.
	iPUR := c.PUR.Isd(q, qb, c.Cond.VDD, c.Cond)
	iPDR := c.PDR.Ids(q, qb, 0, c.Cond)
	iAXR := c.AXR.Ids(c.VWL, c.VBLB, qb, c.Cond)
	dv[0] = (iPUL - iPDL + iAXL) / c.CQ
	dv[1] = (iPUR - iPDR + iAXR) / c.CQ
}

// SupplyCurrent implements PowerMeter: current drawn through both pull-ups.
func (c *SRAMCellWrite) SupplyCurrent(_ float64, v []float64) float64 {
	q, qb := v[0], v[1]
	return c.PUL.Isd(qb, q, c.Cond.VDD, c.Cond) + c.PUR.Isd(q, qb, c.Cond.VDD, c.Cond)
}

// InitialStateHolding returns the stable state holding the given bit
// (bit=true means Q = VDD).
func (c *SRAMCellWrite) InitialStateHolding(bit bool) []float64 {
	if bit {
		return []float64{c.Cond.VDD, 0}
	}
	return []float64{0, c.Cond.VDD}
}

// Write runs the write transient for the given duration starting from the
// cell holding the opposite value of the write data, and reports whether the
// flip completed (Q and QB separated by more than 80% of VDD in the target
// direction).
func (c *SRAMCellWrite) Write(bit bool, duration float64, cfg Config) (flipped bool, res *Result, err error) {
	res, err = Transient(c, c.InitialStateHolding(!bit), 0, duration, c.Cond.VDD, cfg, 0)
	if err != nil {
		return false, res, err
	}
	final := res.Waveform.Final()
	sep := final[0] - final[1]
	if !bit {
		sep = -sep
	}
	return sep > 0.8*c.Cond.VDD, res, nil
}
