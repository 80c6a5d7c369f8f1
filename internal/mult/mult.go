// Package mult implements the paper's case study (Section V): a 4-bit ×
// 4-bit discharge-based in-SRAM multiplier after IMAC [8].
//
// One operand (d) is stored as a 4-bit word across four columns of the SRAM
// array; the other (a) is applied to the shared word line through a 4-bit
// DAC. The four bit-line-bars discharge for τ0, 2τ0, 4τ0 and 8τ0
// respectively (time-domain bit weighting), are sampled onto equal
// capacitors, charge-shared, and the combined voltage is quantized by an
// ADC whose full scale is calibrated to the (15,15) product.
//
// Two interchangeable backends compute the same operation:
//
//   - Behavioral: OPTIMA's calibrated models evaluated only at the sampling
//     instants 2^i·τ0 (fast — this is the paper's contribution).
//   - Golden: transistor-level transient simulation per bit line (slow —
//     the reference the speed-up is measured against).
package mult

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/obs"
	"optima/internal/sched"
	"optima/internal/spice"
	"optima/internal/sram"
	"optima/internal/stats"
)

// Operand and result ranges of the 4×4-bit multiplier.
const (
	OperandBits = 4
	OperandMax  = 1<<OperandBits - 1      // 15
	ProductMax  = OperandMax * OperandMax // 225
	ADCBits     = 8
	ADCMax      = 1<<ADCBits - 1 // 255
)

// Peripheral parameters of the readout chain. The word-line DAC charges an
// effective load (row gates, wire, DAC switching) to V(a) from the rail each
// cycle; the SAR ADC burns a fixed conversion energy; the sampling network
// and comparator contribute a fixed input-referred noise (kT/C on the
// sampling caps plus comparator noise). These are per-operation constants —
// the reason low-swing corners pay a relatively larger accuracy price and
// the energy gap between full-scale settings narrows (paper Table I).
const (
	DefaultDACCap     = 40e-15 // effective DAC/word-line load [F]
	DefaultADCEnergy  = 7e-15  // per-conversion ADC energy [J]
	DefaultCtrlEnergy = 18e-15 // sequencing: precharge drivers, timing, control [J]
	DefaultADCSigma   = 0.4e-3 // sampling + comparator input noise [V]
)

// Config is one multiplier design point: the three explored circuit
// parameters of the paper's design space.
type Config struct {
	Tau0   float64 // discharge time of the least-significant BLB [s]
	VDAC0  float64 // DAC output voltage for input code 0 [V]
	VDACFS float64 // DAC full-scale output voltage (code 15) [V]
}

// String formats the corner like the paper's Table I rows.
func (c Config) String() string {
	return fmt.Sprintf("τ0=%.2f ns, VDAC0=%.1f V, VDACFS=%.1f V", c.Tau0*1e9, c.VDAC0, c.VDACFS)
}

// Validate checks that the configuration is physically meaningful.
func (c Config) Validate() error {
	for _, v := range [...]float64{c.Tau0, c.VDAC0, c.VDACFS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("mult: non-finite parameter in tau0 %g, VDAC0 %g, VDACFS %g", c.Tau0, c.VDAC0, c.VDACFS)
		}
	}
	if c.Tau0 <= 0 {
		return fmt.Errorf("mult: non-positive tau0 %g", c.Tau0)
	}
	if !(c.VDACFS > c.VDAC0) {
		return fmt.Errorf("mult: VDACFS %g must exceed VDAC0 %g", c.VDACFS, c.VDAC0)
	}
	if c.VDAC0 < 0 {
		return fmt.Errorf("mult: negative VDAC0 %g", c.VDAC0)
	}
	return nil
}

// DACVoltage returns the word-line voltage for input code a at the given
// supply (the DAC output tracks supply excursions with the same partial
// sensitivity as in the calibration sweeps).
func (c Config) DACVoltage(a uint, vdd float64) float64 {
	nominal := c.VDAC0 + float64(a)*(c.VDACFS-c.VDAC0)/float64(OperandMax)
	return core.SupplyScaledVWL(nominal, vdd)
}

// BitTime returns the discharge duration of bit-line i: 2^i · τ0.
func (c Config) BitTime(i int) float64 {
	return float64(uint(1)<<uint(i)) * c.Tau0
}

// MaxTime returns the longest discharge duration (MSB line).
func (c Config) MaxTime() float64 { return c.BitTime(OperandBits - 1) }

// Result is the outcome of one in-SRAM multiplication.
type Result struct {
	A, D     uint                 // operands
	Expected int                  // ideal product a·d
	Code     int                  // ADC output code (product estimate in ADC LSBs)
	VComb    float64              // combined (charge-shared) discharge voltage [V]
	Sigma    float64              // analytic mismatch std of VComb [V] (behavioral only)
	Energy   float64              // multiplication energy (bit-line recharge) [J]
	DeltaV   [OperandBits]float64 // per-bit-line discharge at sampling [V]
	// Transients counts the golden bit-line discharges this multiplication
	// ran or read from a memo (0 for the behavioral backend). Returning the
	// count per call keeps
	// the golden multiplier free of shared mutable state, so callers
	// aggregate speed-up accounting themselves.
	Transients int
}

// ErrorLSB returns the signed multiplication error in ADC LSBs.
func (r Result) ErrorLSB() int { return r.Code - r.Expected }

// Behavioral is the fast OPTIMA-model backend. It is calibrated once per
// configuration with a best-fit ADC trim: gain and offset are the least-
// squares line through the nominal-condition transfer over the full input
// space (the standard INL-minimizing calibration of a production ADC),
// so the convex device transfer leaves sign-balanced residuals instead of
// a one-sided mid-code bias.
type Behavioral struct {
	Model *core.Model
	Cfg   Config
	Cond  device.PVT
	// LSBVolt is the calibrated ADC step (best-fit gain) [V].
	LSBVolt float64
	// OffsetVolt is the calibrated ADC zero offset [V].
	OffsetVolt float64
	// DAC optionally replaces the linear code-to-voltage mapping with a
	// trimmed nonlinear DAC (see CalibrateNonlinearDAC).
	DAC *NonlinearDAC
	// det caches the deterministic per-(code, bit) model outputs at Cond
	// (see deterministic.go); MultiplyDet falls back to direct model calls
	// when it is absent or stale.
	det *detTable
}

// ErrScale is returned when a configuration produces no usable full-scale
// discharge (the ADC cannot be calibrated).
var ErrScale = errors.New("mult: degenerate full-scale discharge")

// NewBehavioral builds the behavioral multiplier for a configuration at the
// given operating condition and calibrates its ADC full scale at nominal.
func NewBehavioral(model *core.Model, cfg Config, cond device.PVT) (*Behavioral, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Behavioral{Model: model, Cfg: cfg, Cond: cond}
	if err := b.calibrate(); err != nil {
		return nil, fmt.Errorf("mult: config %v: %w", cfg, err)
	}
	return b, nil
}

// calibrate fits the ADC trim to the nominal-condition transfer and
// installs the deterministic table for b.Cond. The trim fit and the
// deterministic fast path consume the same 16×4 model outputs, so they are
// computed once (64 VBL calls instead of ~1k) and shared when b.Cond is
// nominal.
func (b *Behavioral) calibrate() error {
	nominal := device.Nominal()
	nomTab := b.buildDetTable(nominal)
	gain, offset, err := fitADCTrim(nomTab.combined)
	if err != nil {
		return err
	}
	b.LSBVolt = gain
	b.OffsetVolt = offset
	if b.Cond.VDD == nominal.VDD && b.Cond.TempC == nominal.TempC {
		b.det = nomTab
	} else {
		b.det = b.buildDetTable(b.Cond)
	}
	return nil
}

// fitADCTrim fits the zero-anchored least-squares gain ΔV ≈ gain·(a·d)
// over the full 16×16 input space of the deterministic transfer. The zero
// anchor keeps zero products exactly representable (essential for DNN
// workloads, where zero activations dominate); the gain minimizes the
// integral nonlinearity over the remaining codes.
func fitADCTrim(deltaV func(a, d uint) float64) (gain, offset float64, err error) {
	var sumXX, sumXY float64
	for a := uint(0); a <= OperandMax; a++ {
		for d := uint(0); d <= OperandMax; d++ {
			x := float64(a * d)
			y := deltaV(a, d)
			sumXX += x * x
			sumXY += x * y
		}
	}
	if sumXX == 0 {
		return 0, 0, ErrScale
	}
	gain = sumXY / sumXX
	// A non-finite gain (an overflowing or NaN transfer) would quantize
	// every product to a NaN metric, so it is as unusable as a zero one.
	if !(gain > 0) || math.IsInf(gain, 1) {
		return 0, 0, ErrScale
	}
	return gain, 0, nil
}

// bit is the one per-bit step of every behavioral path: the discharge of
// bit line i under word-line voltage vwl at cond — its clamped ΔV, the
// analytic mismatch σ of that discharge, and its recharge energy. A non-nil
// rng samples the discharge with fresh mismatch.
func (b *Behavioral) bit(i int, vwl float64, cond device.PVT, rng *stats.RNG) (dv, sigma, energy float64) {
	t := b.Cfg.BitTime(i)
	var vbl float64
	if rng != nil {
		vbl = b.Model.Discharge.SampleVBL(t, vwl, cond.VDD, cond.TempC, rng)
	} else {
		vbl = b.Model.Discharge.VBL(t, vwl, cond.VDD, cond.TempC)
	}
	dv = cond.VDD - vbl
	if dv < 0 {
		dv = 0
	}
	return dv, b.Model.Discharge.SigmaAt(t, vwl), b.Model.Energy.DischargeEnergy(true, cond.VDD, dv, cond.TempC)
}

// add accumulates discharged bit line i into the result: VComb and Sigma
// hold the running ΔV sum and variance until finish.
func (r *Result) add(i int, dv, sigma, energy float64) {
	r.DeltaV[i] = dv
	r.VComb += dv
	r.Sigma += sigma * sigma
	r.Energy += energy
}

// finish completes an accumulated result on b's readout: the charge-shared
// VComb and its σ, the ADC code (with input noise when rng is non-nil), and
// the peripheral energy for word-line voltage vwl.
func (r *Result) finish(b *Behavioral, vwl float64, rng *stats.RNG) {
	r.VComb /= OperandBits
	r.Sigma = math.Sqrt(r.Sigma) / OperandBits
	r.Code = b.quantize(r.VComb, rng)
	r.Energy += DefaultDACCap*b.Cond.VDD*vwl + DefaultADCEnergy + DefaultCtrlEnergy
}

// Multiply performs one multiplication. A nil rng gives the deterministic
// (mismatch-free) result; a non-nil rng samples fresh mismatch per
// discharge, following the paper's Monte-Carlo procedure. The models are
// evaluated only at the sampling instants: bit line i's discharge at
// 2^i·τ0, in bit order, then the charge-shared readout.
func (b *Behavioral) Multiply(a, d uint, rng *stats.RNG) (Result, error) {
	if a > OperandMax || d > OperandMax {
		return Result{}, fmt.Errorf("mult: operands (%d,%d) exceed %d bits", a, d, OperandBits)
	}
	res := Result{A: a, D: d, Expected: int(a * d)}
	vwl := b.wordLineVoltage(a, b.Cond.VDD)
	for i := 0; i < OperandBits; i++ {
		if d&(1<<uint(i)) != 0 {
			dv, sigma, energy := b.bit(i, vwl, b.Cond, rng)
			res.add(i, dv, sigma, energy)
		}
	}
	res.finish(b, vwl, rng)
	return res, nil
}

// quantize maps a combined discharge voltage to an ADC code using the
// calibrated gain and offset, with ADC input noise when rng is non-nil.
func (b *Behavioral) quantize(vcomb float64, rng *stats.RNG) int {
	v := vcomb
	if rng != nil {
		v = rng.Gaussian(v, DefaultADCSigma)
	}
	return adcCode(v, b.OffsetVolt, b.LSBVolt)
}

// adcCode rounds a combined voltage onto a trimmed ADC scale, clamped to
// the converter's range [0, ADCMax] — the readout both backends share.
func adcCode(v, offset, lsb float64) int {
	return min(max(int(math.Round((v-offset)/lsb)), 0), ADCMax)
}

// WriteEnergy returns the modeled energy of storing the d operand
// (a full 4-bit word write) at the multiplier's condition, via Eq. 7.
func (b *Behavioral) WriteEnergy() float64 {
	return b.Model.Energy.WriteEnergy(b.Cond.VDD, b.Cond.TempC)
}

// Golden is the transistor-level reference backend: every set bit of d
// becomes a transient simulation of the discharge stack (MultiplyCells),
// sampled per bit line and composed by one readout. It quantizes with the
// same full-scale calibration approach as the behavioral backend (anchored
// at its own nominal (15,15) golden discharge). A whole matched-cell input
// space needs only the 16×4 distinct bit-line transients (Table).
//
// The receiver is immutable after construction, so a single Golden is safe
// for concurrent MultiplyCells/Table calls — the basis of the
// engine's intra-job parallel golden evaluation. All per-call state is
// explicit: column mismatch is passed in as an *sram.Word (nil = matched
// cells), integrator work buffers as a per-worker *spice.Scratch, and the
// transient count of each call comes back in Result.Transients.
type Golden struct {
	Tech       device.Tech
	Cfg        Config
	Cond       device.PVT
	Spice      spice.Config
	LSBVolt    float64
	OffsetVolt float64
	// Trajectories, when set before first use, serves every bit-line
	// discharge from a memo shared with other multipliers, bit for bit the
	// fresh transient; nil runs one fresh transient per set bit.
	Trajectories *spice.Trajectories
}

// The multiplier's per-column mismatch state is one sram.Word: cell i backs
// bit line i. This pins the two widths together at compile time.
var _ = sram.Word([OperandBits]sram.Cell{})

// GoldenTrim is the per-configuration ADC trim of the golden multiplier:
// the best-fit gain/offset of the nominal-condition transfer. The trim
// depends only on (technology, configuration, solver settings) — not on the
// operating condition — so condition sweeps over one configuration can
// calibrate once and share the result (see NewGoldenWithTrim).
type GoldenTrim struct {
	LSBVolt    float64
	OffsetVolt float64
	// Transients counts the golden simulations the calibration spent.
	Transients int
}

// CalibrateGoldenTrim runs the sixteen nominal trim transients of a
// configuration (one per input code; each waveform provides all four bit
// sampling times, since the columns share the word line) and fits the
// best-fit ADC gain/offset.
func CalibrateGoldenTrim(tech device.Tech, cfg Config, scfg spice.Config) (GoldenTrim, error) {
	return CalibrateGoldenTrimObserved(tech, cfg, scfg, nil, 1, nil, 0)
}

// CalibrateGoldenTrimObserved is CalibrateGoldenTrim with the sixteen
// independent transients fanned out across up to workers goroutines
// (workers <= 0 uses GOMAXPROCS), recording one trim-transient span per
// input code under parent — the intra-worker fan-out a trace otherwise
// renders as one opaque calibration block. A non-nil traj serves the four
// samples of each code's waveform from its memoized trajectory. Each
// worker fills a fixed per-code slot and the least-squares fit reduces
// serially in code order, so the trim is identical at any worker count
// and with or without traj. A nil recorder records nothing; timing never
// feeds into the returned trim.
func CalibrateGoldenTrimObserved(tech device.Tech, cfg Config, scfg spice.Config, traj *spice.Trajectories, workers int, rec *obs.Recorder, parent obs.SpanID) (GoldenTrim, error) {
	if err := cfg.Validate(); err != nil {
		return GoldenTrim{}, err
	}
	nominal := device.Nominal()
	var times [OperandBits]float64
	for i := range times {
		times[i] = cfg.BitTime(i)
	}
	// One transient per input code a; ΔV of bit i sampled at 2^i·τ0.
	// sched.Map returns the rows in code order regardless of scheduling.
	dv, err := sched.Map(workers, inputCodes(), func(_ int, a uint) ([OperandBits]float64, error) {
		var span obs.Timer
		if rec != nil {
			span = rec.StartSpan(parent, obs.CatTrim, "trim-transient", fmt.Sprintf("code %d", a))
		}
		var row [OperandBits]float64
		vwl := cfg.DACVoltage(a, nominal.VDD)
		dp := spice.NewDischargePath(tech, vwl, nominal)
		vbl, err := traj.Samples(dp, cfg.MaxTime(), times[:], scfg, nil)
		span.End()
		if err != nil {
			return row, fmt.Errorf("mult: golden trim calibration: %w", err)
		}
		for i := 0; i < OperandBits; i++ {
			d := nominal.VDD - vbl[i]
			if d < 0 {
				d = 0
			}
			row[i] = d
		}
		return row, nil
	})
	if err != nil {
		return GoldenTrim{}, err
	}
	trim := GoldenTrim{Transients: len(dv)}
	gain, offset, err := fitADCTrim(func(a, d uint) float64 {
		var sum float64
		for i := 0; i < OperandBits; i++ {
			if d&(1<<uint(i)) != 0 {
				sum += dv[a][i]
			}
		}
		return sum / OperandBits
	})
	if err != nil {
		return GoldenTrim{}, fmt.Errorf("mult: config %v: %w", cfg, err)
	}
	trim.LSBVolt = gain
	trim.OffsetVolt = offset
	return trim, nil
}

// inputCodes returns the input codes 0…OperandMax in order.
func inputCodes() []uint {
	codes := make([]uint, OperandMax+1)
	for a := range codes {
		codes[a] = uint(a)
	}
	return codes
}

// NewGolden builds the golden multiplier, calibrating its ADC trim from
// scratch. The trim's transient cost is reported by the trim itself; the
// per-multiplication cost comes back in each Result.Transients.
func NewGolden(tech device.Tech, cfg Config, cond device.PVT, scfg spice.Config) (*Golden, error) {
	trim, err := CalibrateGoldenTrim(tech, cfg, scfg)
	if err != nil {
		return nil, err
	}
	return NewGoldenWithTrim(tech, cfg, cond, scfg, trim)
}

// NewGoldenWithTrim builds the golden multiplier around a previously
// calibrated ADC trim, skipping the sixteen trim transients.
func NewGoldenWithTrim(tech device.Tech, cfg Config, cond device.PVT, scfg spice.Config, trim GoldenTrim) (*Golden, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Golden{
		Tech: tech, Cfg: cfg, Cond: cond, Spice: scfg,
		LSBVolt: trim.LSBVolt, OffsetVolt: trim.OffsetVolt,
	}, nil
}

// MultiplyCells performs one golden multiplication with explicit per-call
// state: cells carries the per-column mismatch (cell i backs bit line i;
// nil means matched columns), scr optionally reuses one worker's integrator
// buffers across calls. Columns whose d-bit is set are simulated for their
// bit time, one transient each — the cost the paper's speed-up experiment
// times — or read from g.Trajectories when it is set. The receiver is
// never mutated, so concurrent calls with distinct cells/scr are safe.
func (g *Golden) MultiplyCells(a, d uint, cells *sram.Word, scr *spice.Scratch) (Result, error) {
	if a > OperandMax || d > OperandMax {
		return Result{}, fmt.Errorf("mult: operands (%d,%d) exceed %d bits", a, d, OperandBits)
	}
	if cells == nil {
		cells = &sram.Word{}
	}
	var dv [OperandBits]float64
	transients := 0
	for i := 0; i < OperandBits; i++ {
		if d&(1<<uint(i)) == 0 {
			continue
		}
		v, err := g.bitDeltaV(a, i, &cells[i], scr)
		if err != nil {
			return Result{}, err
		}
		dv[i] = v
		transients++
	}
	res := g.readout(a, d, &dv)
	res.Transients = transients
	return res, nil
}

// bitDeltaV is the golden per-bit-line step: the discharge of bit line i's
// stack (cell's mismatch) under input code a for the bit time 2^i·τ0, one
// transient or a read of g.Trajectories, returning the clamped ΔV at
// sampling.
func (g *Golden) bitDeltaV(a uint, i int, cell *sram.Cell, scr *spice.Scratch) (float64, error) {
	dp := cell.DischargePath(g.Tech, g.Cfg.DACVoltage(a, g.Cond.VDD), g.Cond)
	vbl, err := g.Trajectories.Final(dp, g.Cfg.BitTime(i), g.Spice, scr)
	if err != nil {
		return 0, fmt.Errorf("mult: golden bit %d: %w", i, err)
	}
	dv := g.Cond.VDD - vbl
	if dv < 0 {
		dv = 0
	}
	return dv, nil
}

// readout is the golden compose step: it charge-shares the sampled ΔV of
// d's set bit lines (dv[i], summed in bit order), adds their recharge
// energy, quantizes on the trimmed ADC and adds the peripheral energy.
// Transients is left to the caller.
func (g *Golden) readout(a, d uint, dv *[OperandBits]float64) Result {
	res := Result{A: a, D: d, Expected: int(a * d)}
	var sum float64
	for i := 0; i < OperandBits; i++ {
		if d&(1<<uint(i)) == 0 {
			continue
		}
		res.DeltaV[i] = dv[i]
		sum += dv[i]
		// Recharge energy of this bit line (same physical definition the
		// energy model was calibrated against).
		res.Energy += spice.DefaultCBL * g.Cond.VDD * dv[i]
	}
	res.VComb = sum / OperandBits
	res.Code = adcCode(res.VComb, g.OffsetVolt, g.LSBVolt)
	// Same peripheral accounting as the behavioral backend.
	vwl := g.Cfg.DACVoltage(a, g.Cond.VDD)
	res.Energy += DefaultDACCap*g.Cond.VDD*vwl + DefaultADCEnergy + DefaultCtrlEnergy
	return res
}

// TableTransients is the number of bit-line discharges a GoldenTable runs
// or reads: one per (input code, bit line).
const TableTransients = (OperandMax + 1) * OperandBits

// GoldenTable is the golden twin of the behavioral detTable: the
// matched-cell transfer of one golden multiplier. With matched columns a bit
// line's discharge depends only on the input code a and its bit index i —
// the stored operand d selects which bit lines take part, never what one
// does — so the 16×4 ΔV table holds every transient of the 16×16 input
// space, and Multiply composes any pair through MultiplyCells' readout.
type GoldenTable struct {
	g  *Golden
	dv [OperandMax + 1][OperandBits]float64
}

// Table runs the TableTransients matched-cell transients of g with the 16
// input codes fanned out across up to workers goroutines (<= 0 =
// GOMAXPROCS), each with its own integrator scratch. A code's four bit
// lines discharge one trajectory for 2^i·τ0, read in ascending i, so with
// g.Trajectories set each read extends what the previous one integrated.
// Every code fills a fixed row, so the table is identical at any worker
// count.
func (g *Golden) Table(workers int) (*GoldenTable, error) {
	var scratch sync.Pool
	rows, err := sched.Map(workers, inputCodes(), func(_ int, a uint) ([OperandBits]float64, error) {
		scr, _ := scratch.Get().(*spice.Scratch)
		if scr == nil {
			scr = &spice.Scratch{}
		}
		defer scratch.Put(scr)
		var row [OperandBits]float64
		for i := range row {
			v, err := g.bitDeltaV(a, i, &sram.Cell{}, scr)
			if err != nil {
				return row, err
			}
			row[i] = v
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t := &GoldenTable{g: g}
	copy(t.dv[:], rows)
	return t, nil
}

// Multiply composes one matched-cell multiplication from the table: exactly
// the Result of MultiplyCells(a, d, nil, ·) except that Transients is 0,
// since the table already ran them.
func (t *GoldenTable) Multiply(a, d uint) (Result, error) {
	if a > OperandMax || d > OperandMax {
		return Result{}, fmt.Errorf("mult: operands (%d,%d) exceed %d bits", a, d, OperandBits)
	}
	return t.g.readout(a, d, &t.dv[a]), nil
}
