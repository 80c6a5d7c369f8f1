// Package mult implements the paper's case study (Section V): a 4-bit ×
// 4-bit discharge-based in-SRAM multiplier after IMAC [8].
//
// One operand (d) is stored as a 4-bit word across four columns of the SRAM
// array; the other (a) is applied to the shared word line through a 4-bit
// DAC. The four bit-line-bars discharge for τ0, 2τ0, 4τ0 and 8τ0
// respectively (time-domain bit weighting), are sampled onto equal
// capacitors, charge-shared, and the combined voltage is quantized by an
// ADC whose gain is trimmed once per configuration at the nominal
// condition: one zero-anchored least-squares gain over all 256 products.
//
// Two interchangeable backends compute the same operation and differ only
// in how they get one bit line's discharge:
//
//   - Behavioral: OPTIMA's calibrated models evaluated only at the sampling
//     instants 2^i·τ0 (fast — this is the paper's contribution).
//   - Golden: transistor-level transient simulation per bit line (slow —
//     the reference the speed-up is measured against).
//
// Both fill the same per-code transfer row and compose every product
// through one readout (readout.go). A multiplier is fixed when it is built:
// NewBehavioral derives its trim and table from inputs nothing outside the
// package can change, and a Golden carries CalibrateGoldenTrim's LSB.
package mult

import (
	"cmp"
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

// Validate checks that the configuration is physically meaningful: every
// parameter finite, then ValidateTau0 and ValidateDAC.
func (c Config) Validate() error {
	for _, v := range [...]float64{c.Tau0, c.VDAC0, c.VDACFS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("mult: non-finite parameter in tau0 %g, VDAC0 %g, VDACFS %g", c.Tau0, c.VDAC0, c.VDACFS)
		}
	}
	return cmp.Or(ValidateTau0(c.Tau0), ValidateDAC(c.VDAC0, c.VDACFS))
}

// ValidateTau0 is Validate's τ0 rule: the discharge time must be positive.
func ValidateTau0(tau0 float64) error {
	if tau0 <= 0 {
		return fmt.Errorf("mult: non-positive tau0 %g", tau0)
	}
	return nil
}

// ValidateDAC is Validate's DAC rule: VDACFS must exceed VDAC0, itself >= 0.
func ValidateDAC(vdac0, vdacfs float64) error {
	if !(vdacfs > vdac0) {
		return fmt.Errorf("mult: VDACFS %g must exceed VDAC0 %g", vdacfs, vdac0)
	}
	if vdac0 < 0 {
		return fmt.Errorf("mult: negative VDAC0 %g", vdac0)
	}
	return nil
}

// DACVoltage returns the word-line voltage for input code a at the given
// supply (the DAC output tracks supply excursions with the same partial
// sensitivity as in the calibration sweeps).
func (c Config) DACVoltage(a uint, vdd float64) float64 {
	return core.SupplyScaledVWL(c.dacLevel(a), vdd)
}

// dacLevel is the linear DAC's nominal output for input code a.
func (c Config) dacLevel(a uint) float64 {
	return c.VDAC0 + float64(a)*(c.VDACFS-c.VDAC0)/float64(OperandMax)
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
	// count per call keeps the golden multiplier free of shared mutable
	// state, so callers aggregate speed-up accounting themselves.
	Transients int
}

// ErrorLSB returns the signed multiplication error in ADC LSBs.
func (r Result) ErrorLSB() int { return r.Code - r.Expected }

// Behavioral is the fast OPTIMA-model backend. It is calibrated once per
// configuration with a best-fit ADC trim: one zero-anchored least-squares
// gain over the nominal-condition transfer of all 256 products (the
// INL-minimizing calibration of a production ADC, see fitADCTrim), so the
// convex device transfer leaves balanced residuals instead of a one-sided
// mid-code bias. NewBehavioral and WithNonlinearDAC fix its models,
// configuration, condition and DAC, and build the trim and table from them.
type Behavioral struct {
	model *core.Model
	cfg   Config
	cond  device.PVT
	// LSBVolt is the calibrated ADC step (best-fit gain) [V].
	LSBVolt float64
	// levels[a] is the DAC's nominal output for input code a: the linear
	// mapping of cfg, or a copy of the trimmed levels (WithNonlinearDAC).
	levels [OperandMax + 1]float64
	// det is the deterministic transfer at cond.
	det *table
}

// ErrScale is returned when a configuration produces no usable full-scale
// discharge (the ADC cannot be calibrated).
var ErrScale = errors.New("mult: degenerate full-scale discharge")

// NewBehavioral builds the behavioral multiplier for a configuration at the
// given operating condition and calibrates its ADC trim at nominal.
func NewBehavioral(model *core.Model, cfg Config, cond device.PVT) (*Behavioral, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Behavioral{model: model, cfg: cfg, cond: cond}
	for a := range b.levels {
		b.levels[a] = cfg.dacLevel(uint(a))
	}
	if err := b.calibrate(); err != nil {
		return nil, fmt.Errorf("mult: config %v: %w", cfg, err)
	}
	return b, nil
}

// calibrate fits the ADC trim to the nominal-condition transfer and
// installs the deterministic table for b.cond. The trim fit and the
// deterministic fast path read the same 16×4 model outputs, so at the
// nominal condition they share one table (64 VBL calls instead of ~1k).
func (b *Behavioral) calibrate() error {
	nominal := device.Nominal()
	det := b.transfer(nominal)
	gain, err := fitADCTrim(det)
	if err != nil {
		return err
	}
	if b.cond.VDD != nominal.VDD || b.cond.TempC != nominal.TempC {
		det = b.transfer(b.cond)
	}
	b.LSBVolt, b.det = gain, det
	return nil
}

// fill evaluates the models for input code a at cond on the bit lines set
// in d, in bit order, at their sampling instants 2^i·τ0: each line's
// clamped ΔV, the analytic mismatch σ of that discharge and its recharge
// energy. A non-nil rng samples each discharge with fresh mismatch.
func (b *Behavioral) fill(r *row, a, d uint, cond device.PVT, rng *stats.RNG) {
	r.vwl = core.SupplyScaledVWL(b.levels[a], cond.VDD)
	for i := 0; i < OperandBits; i++ {
		if d&(1<<uint(i)) == 0 {
			continue
		}
		t := b.cfg.BitTime(i)
		var vbl float64
		if rng != nil {
			vbl = b.model.Discharge.SampleVBL(t, r.vwl, cond.VDD, cond.TempC, rng)
		} else {
			vbl = b.model.Discharge.VBL(t, r.vwl, cond.VDD, cond.TempC)
		}
		r.dv[i] = discharged(cond.VDD, vbl)
		r.sigma[i] = b.model.Discharge.SigmaAt(t, r.vwl)
		r.energy[i] = b.model.Energy.DischargeEnergy(true, cond.VDD, r.dv[i], cond.TempC)
	}
}

// Multiply performs one multiplication. A nil rng gives the deterministic
// (mismatch-free) result; a non-nil rng samples fresh mismatch per
// discharge, following the paper's Monte-Carlo procedure, then the ADC's
// input noise. The models are evaluated only at the sampling instants: bit
// line i's discharge at 2^i·τ0, in bit order, then the charge-shared
// readout.
func (b *Behavioral) Multiply(a, d uint, rng *stats.RNG) (Result, error) {
	if a > OperandMax || d > OperandMax {
		return Result{}, fmt.Errorf("mult: operands (%d,%d) exceed %d bits", a, d, OperandBits)
	}
	var r row
	b.fill(&r, a, d, b.cond, rng)
	res := Result{A: a, D: d, Expected: int(a * d)}
	r.readout(&res, b.cond.VDD, b.LSBVolt, rng)
	return res, nil
}

// WriteEnergy returns the modeled energy of storing the d operand
// (a full 4-bit word write) at the multiplier's condition, via Eq. 7.
func (b *Behavioral) WriteEnergy() float64 {
	return b.model.Energy.WriteEnergy(b.cond.VDD, b.cond.TempC)
}

// Golden is the transistor-level reference backend: every set bit of d
// becomes a transient simulation of the discharge stack (MultiplyCells),
// sampled per bit line and composed by the readout both backends share. Its
// ADC trim LSBVolt is fitted the same way as the behavioral backend's, to
// its own nominal golden transfer (NewGolden, or CalibrateGoldenTrim shared
// across conditions). A whole matched-cell input space needs only the 16×4
// distinct bit-line transients (Table).
//
// The receiver is immutable after construction, so a single Golden is safe
// for concurrent MultiplyCells/Table calls — the basis of the
// engine's intra-job parallel golden evaluation. All per-call state is
// explicit: column mismatch is passed in as an *sram.Word (nil = matched
// cells), integrator work buffers as a per-worker *spice.Scratch, and the
// transient count of each call comes back in Result.Transients.
type Golden struct {
	Tech    device.Tech
	Cfg     Config
	Cond    device.PVT
	Spice   spice.Config
	LSBVolt float64
	// Trajectories, when set, serves every bit-line discharge from a memo
	// shared with other multipliers, bit for bit the fresh transient; nil
	// runs one fresh transient per set bit.
	Trajectories *spice.Trajectories
}

// The multiplier's per-column mismatch state is one sram.Word: cell i backs
// bit line i. This pins the two widths together at compile time.
var _ = sram.Word([OperandBits]sram.Cell{})

// CalibrateGoldenTrim returns the golden multiplier's ADC trim LSB: the
// zero-anchored least-squares gain of the nominal transfer, fitted from
// TrimTransients waveforms (one per input code, read at the four bit
// times, since the columns share the word line). It depends on the
// technology, configuration and solver settings, not on the condition, so
// a condition sweep can share one. The waveforms fan out across up to
// workers goroutines (<= 0 = GOMAXPROCS) with one trim-transient span per
// code under parent, and a non-nil traj serves them from its memo. Each
// worker fills a fixed per-code row and the fit reduces serially in code
// order, so the trim is identical at any worker count and with or without
// traj. A nil recorder records nothing; timing never feeds into the trim.
func CalibrateGoldenTrim(tech device.Tech, cfg Config, scfg spice.Config, traj *spice.Trajectories, workers int, rec *obs.Recorder, parent obs.SpanID) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	nominal := device.Nominal()
	var times [OperandBits]float64
	for i := range times {
		times[i] = cfg.BitTime(i)
	}
	// One waveform per input code a, read at the four bit times (the
	// interpolated samples of one transient, not four transients).
	tab, err := codeRows(workers, func(a uint, r *row) error {
		var span obs.Timer
		if rec != nil {
			span = rec.StartSpan(parent, obs.CatTrim, "trim-transient", fmt.Sprintf("code %d", a))
		}
		dp := spice.NewDischargePath(tech, cfg.DACVoltage(a, nominal.VDD), nominal)
		vbl, err := traj.Samples(dp, cfg.MaxTime(), times[:], scfg, nil)
		span.End()
		if err != nil {
			return fmt.Errorf("mult: golden trim calibration: %w", err)
		}
		for i := range r.dv {
			r.dv[i] = discharged(nominal.VDD, vbl[i])
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	gain, err := fitADCTrim(tab)
	if err != nil {
		return 0, fmt.Errorf("mult: config %v: %w", cfg, err)
	}
	return gain, nil
}

// codeRows fills a new table, row a by f(a, &row) for every input code,
// with up to workers goroutines (<= 0 = GOMAXPROCS). Each code fills its
// own row, so the table is identical at any worker count.
func codeRows(workers int, f func(a uint, r *row) error) (*table, error) {
	tab := new(table)
	if _, err := sched.Map(workers, make([]struct{}, len(tab)), func(a int, _ struct{}) (struct{}, error) {
		return struct{}{}, f(uint(a), &tab[a])
	}); err != nil {
		return nil, err
	}
	return tab, nil
}

// NewGolden builds the golden multiplier, calibrating its ADC trim from
// scratch (TrimTransients serial transients, no memo). The
// per-multiplication cost comes back in each Result.Transients.
func NewGolden(tech device.Tech, cfg Config, cond device.PVT, scfg spice.Config) (*Golden, error) {
	lsb, err := CalibrateGoldenTrim(tech, cfg, scfg, nil, 1, nil, 0)
	if err != nil {
		return nil, err
	}
	return &Golden{Tech: tech, Cfg: cfg, Cond: cond, Spice: scfg, LSBVolt: lsb}, nil
}

// fill discharges input code a's bit lines set in d, each through its
// column's cell (cells[i] backs bit line i) for 2^i·τ0 — one transient, or
// a read of g.Trajectories — into the row's clamped ΔV and recharge energy
// (the definition the energy model was calibrated against), and returns
// how many it ran or read.
func (g *Golden) fill(r *row, a, d uint, cells *sram.Word, scr *spice.Scratch) (int, error) {
	r.vwl = g.Cfg.DACVoltage(a, g.Cond.VDD)
	n := 0
	for i := 0; i < OperandBits; i++ {
		if d&(1<<uint(i)) == 0 {
			continue
		}
		dp := cells[i].DischargePath(g.Tech, r.vwl, g.Cond)
		vbl, err := g.Trajectories.Final(dp, g.Cfg.BitTime(i), g.Spice, scr)
		if err != nil {
			return n, fmt.Errorf("mult: golden bit %d: %w", i, err)
		}
		r.dv[i] = discharged(g.Cond.VDD, vbl)
		r.energy[i] = spice.DefaultCBL * g.Cond.VDD * r.dv[i]
		n++
	}
	return n, nil
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
	var r row
	n, err := g.fill(&r, a, d, cells, scr)
	if err != nil {
		return Result{}, err
	}
	res := Result{A: a, D: d, Expected: int(a * d), Transients: n}
	r.readout(&res, g.Cond.VDD, g.LSBVolt, nil)
	return res, nil
}

// TableTransients is the number of bit-line discharges a GoldenTable runs
// or reads: one per (input code, bit line). TrimTransients is the number
// of waveforms CalibrateGoldenTrim runs or reads: one per input code.
const (
	TableTransients = (OperandMax + 1) * OperandBits
	TrimTransients  = OperandMax + 1
)

// GoldenTable is the matched-cell transfer of one golden multiplier: the
// same 16×4 table the behavioral backend evaluates from its models, filled
// from transients, so Multiply composes any pair through the shared
// readout.
type GoldenTable struct {
	g   *Golden
	tab *table
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
	tab, err := codeRows(workers, func(a uint, r *row) error {
		scr, _ := scratch.Get().(*spice.Scratch)
		if scr == nil {
			scr = &spice.Scratch{}
		}
		defer scratch.Put(scr)
		_, err := g.fill(r, a, OperandMax, &sram.Word{}, scr)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &GoldenTable{g: g, tab: tab}, nil
}

// Multiply composes one matched-cell multiplication from the table: exactly
// the Result of MultiplyCells(a, d, nil, ·) except that Transients is 0,
// since the table already ran them.
func (t *GoldenTable) Multiply(a, d uint) (Result, error) {
	if a > OperandMax || d > OperandMax {
		return Result{}, fmt.Errorf("mult: operands (%d,%d) exceed %d bits", a, d, OperandBits)
	}
	res := Result{A: a, D: d, Expected: int(a * d)}
	t.tab[a].readout(&res, t.g.Cond.VDD, t.g.LSBVolt, nil)
	return res, nil
}
