package core

import (
	"fmt"
	"slices"

	"optima/internal/device"
	"optima/internal/poly"
	"optima/internal/sched"
	"optima/internal/spice"
	"optima/internal/sram"
	"optima/internal/stats"
)

// CalibrationConfig controls the golden-simulation sweeps and the
// polynomial degrees of the fits. DefaultCalibration returns the settings
// used for all reported experiments.
type CalibrationConfig struct {
	Tech device.Tech
	// Time window and sampling for discharge sweeps.
	TMax  float64 // [s]
	TStep float64 // [s]
	// Word-line voltage grid.
	VWLMin, VWLMax, VWLStep float64
	// Supply grid for Eq. 4 / Eq. 7 / Eq. 8.
	VDDs []float64
	// Temperature grid [°C] for Eq. 5 / Eq. 7 / Eq. 8.
	Temps []float64
	// Monte-Carlo settings for the mismatch model (Eq. 6).
	MCSamples int
	MCVWLs    []float64
	Seed      uint64
	// Polynomial degrees, following the paper's p-notation.
	DegVod, DegTime              int // Eq. 3: p4(Vod), p2(t)
	DegVDD                       int // Eq. 4: p2(ΔVDD)
	DegTempVWL                   int // Eq. 5: p3(V_WL)
	DegSigmaT, DegSigmaVWL       int // Eq. 6: p3(t), p3(V_WL)
	DegWriteVDD, DegWriteT       int // Eq. 7: p2(VDD), p1(T)
	DegEdcVDD, DegEdcDV, DegEdcT int // Eq. 8: p1, p3, p1
	// Spice solver settings.
	Spice spice.Config
}

// DefaultCalibration returns the standard calibration recipe: a 17-point
// word-line grid spanning sub-threshold (0.25 V) to full rail (1.05 V),
// 2.4 ns discharge window (covering 8·τ0 at the largest explored τ0),
// 5-point supply and temperature grids, and 120 Monte-Carlo samples per
// mismatch point.
func DefaultCalibration() CalibrationConfig {
	return CalibrationConfig{
		Tech:      device.Generic65(),
		TMax:      2.25e-9,
		TStep:     0.06e-9,
		VWLMin:    0.30,
		VWLMax:    1.00,
		VWLStep:   0.05,
		VDDs:      []float64{0.90, 0.95, 1.00, 1.05, 1.10},
		Temps:     []float64{0, 20, 40, 60, 80},
		MCSamples: 120,
		MCVWLs:    []float64{0.30, 0.45, 0.60, 0.75, 0.90, 1.00},
		Seed:      0x0071a_2024,
		DegVod:    4, DegTime: 2,
		DegVDD:     2,
		DegTempVWL: 3,
		DegSigmaT:  3, DegSigmaVWL: 3,
		DegWriteVDD: 2, DegWriteT: 1,
		DegEdcVDD: 1, DegEdcDV: 3, DegEdcT: 1,
		Spice: spice.DefaultConfig(),
	}
}

// QuickCalibration returns a reduced recipe for tests: coarser grids and
// fewer Monte-Carlo samples, roughly 6× faster than the default.
func QuickCalibration() CalibrationConfig {
	cfg := DefaultCalibration()
	cfg.TStep = 0.12e-9
	cfg.VWLStep = 0.10
	cfg.VDDs = []float64{0.90, 1.00, 1.10}
	cfg.Temps = []float64{0, 40, 80}
	cfg.MCSamples = 60
	cfg.MCVWLs = []float64{0.35, 0.60, 0.80, 1.00}
	return cfg
}

func (c CalibrationConfig) vwlGrid() []float64 {
	var grid []float64
	for v := c.VWLMin; v <= c.VWLMax+1e-12; v += c.VWLStep {
		grid = append(grid, v)
	}
	return grid
}

func (c CalibrationConfig) tGrid() []float64 {
	var grid []float64
	for t := c.TStep; t <= c.TMax+1e-21; t += c.TStep {
		grid = append(grid, t)
	}
	return grid
}

// goldenCurve is one golden discharge transient sampled on the t-grid.
type goldenCurve struct {
	vwl, vdd, tempC float64
	vbl             []float64 // V_BL at each t-grid point
}

// Calibrate runs the golden sweeps and least-squares fits and returns the
// calibrated OPTIMA model together with its fit report.
func Calibrate(cfg CalibrationConfig) (*Model, error) {
	tGrid := cfg.tGrid()
	vwlGrid := cfg.vwlGrid()
	transients := 0

	// --- Golden sweep 1: (VWL × t) at nominal, plus VDD and T variants. ---
	type job struct{ vwl, vdd, tempC float64 }
	var jobs []job
	for _, vwl := range vwlGrid {
		jobs = append(jobs, job{vwl, device.NominalVDD, device.NominalTempC})
		for _, vdd := range cfg.VDDs {
			if vdd != device.NominalVDD {
				jobs = append(jobs, job{vwl, vdd, device.NominalTempC})
			}
		}
		for _, tc := range cfg.Temps {
			if tc != device.NominalTempC {
				jobs = append(jobs, job{vwl, device.NominalVDD, tc})
			}
		}
	}
	curves, err := sched.Map(0, jobs, func(_ int, j job) (goldenCurve, error) {
		cond := device.PVT{Corner: device.CornerTT, VDD: j.vdd, TempC: j.tempC}
		dp := spice.NewDischargePath(cfg.Tech, SupplyScaledVWL(j.vwl, j.vdd), cond)
		res, err := dp.Discharge(cfg.TMax, cfg.Spice, cfg.TStep/2)
		if err != nil {
			return goldenCurve{}, fmt.Errorf("core: golden sweep vwl=%.2f vdd=%.2f T=%.0f: %w", j.vwl, j.vdd, j.tempC, err)
		}
		vbl := make([]float64, len(tGrid))
		for k, t := range tGrid {
			vbl[k] = res.Waveform.NodeAt(0, t)
		}
		return goldenCurve{vwl: j.vwl, vdd: j.vdd, tempC: j.tempC, vbl: vbl}, nil
	})
	if err != nil {
		return nil, err
	}
	transients += len(jobs)

	nominal := make([]goldenCurve, 0, len(vwlGrid))
	vddVar := make([]goldenCurve, 0)
	tempVar := make([]goldenCurve, 0)
	for _, c := range curves {
		switch {
		case c.vdd == device.NominalVDD && c.tempC == device.NominalTempC:
			nominal = append(nominal, c)
		case c.tempC == device.NominalTempC:
			vddVar = append(vddVar, c)
		default:
			tempVar = append(tempVar, c)
		}
	}

	m := &Model{Version: ModelVersion, Technology: "generic-65nm"}
	m.Discharge.VthRef = cfg.Tech.Vth0
	m.Discharge.VDDNom = device.NominalVDD
	m.Discharge.TnomC = device.NominalTempC

	// --- Eq. 3: rank-1 separable fit of VBL − VDD over (Vod, t). ---
	var baseSamples []poly.SampleN
	for _, c := range nominal {
		for k, t := range tGrid {
			baseSamples = append(baseSamples, poly.SampleN{
				Xs: []float64{c.vwl - m.Discharge.VthRef, t * timeScale},
				Z:  c.vbl[k] - device.NominalVDD,
			})
		}
	}
	base, baseRMS, err := poly.FitSeparable(baseSamples, cfg.DegVod, cfg.DegTime, 80, 1e-13)
	if err != nil {
		return nil, fmt.Errorf("core: base discharge fit: %w", err)
	}
	m.Discharge.Base = base
	m.Report.BaseRMSVolts = baseRMS

	// --- Eq. 4: p2(ΔVDD) multiplying the base model. ---
	// The nominal curves participate with ΔVDD = 0 to pin the factor near 1.
	m.Discharge.VDDFactor, err = fitCurves(slices.Concat(nominal, vddVar), tGrid, cfg.DegVDD,
		func(c goldenCurve, k int, t float64) (x, w, z float64) {
			return c.vdd - device.NominalVDD, m.Discharge.VBLBase(t, c.vwl), c.vbl[k]
		})
	if err != nil {
		return nil, fmt.Errorf("core: VDD fit: %w", err)
	}
	// Report RMS on the supply-variation curves only (as the paper does).
	m.Report.VDDRMSVolts = m.Discharge.curveRMS(vddVar, tGrid)

	// --- Eq. 5: additive temperature term t·ΔT·p3(V_WL). ---
	m.Discharge.TempSlope, err = fitCurves(tempVar, tGrid, cfg.DegTempVWL,
		func(c goldenCurve, k int, t float64) (x, w, z float64) {
			pred := m.Discharge.VBLBase(t, c.vwl) * m.Discharge.VDDFactor.Eval(0)
			return c.vwl, t * timeScale * (c.tempC - device.NominalTempC), c.vbl[k] - pred
		})
	if err != nil {
		return nil, fmt.Errorf("core: temperature fit: %w", err)
	}
	m.Report.TempRMSVolts = m.Discharge.curveRMS(tempVar, tGrid)

	// --- Eq. 6: mismatch σ(t, V_WL) from Monte Carlo. ---
	{
		type mcResult struct {
			vwl   float64
			sigma []float64 // per t-grid point
		}
		rngs := make([]*stats.RNG, len(cfg.MCVWLs))
		master := stats.NewRNG(cfg.Seed)
		for i := range rngs {
			rngs[i] = master.Split()
		}
		results, err := sched.Map(0, cfg.MCVWLs, func(i int, vwl float64) (mcResult, error) {
			rng := rngs[i]
			accs := make([]stats.Accumulator, len(tGrid))
			cond := device.Nominal()
			for s := 0; s < cfg.MCSamples; s++ {
				dp := spice.NewDischargePath(cfg.Tech, vwl, cond)
				dp.SampleMismatch(rng)
				res, err := dp.Discharge(cfg.TMax, cfg.Spice, cfg.TStep/2)
				if err != nil {
					return mcResult{}, fmt.Errorf("core: mismatch MC vwl=%.2f sample %d: %w", vwl, s, err)
				}
				for k, t := range tGrid {
					accs[k].Add(res.Waveform.NodeAt(0, t))
				}
			}
			sig := make([]float64, len(tGrid))
			for k := range accs {
				sig[k] = accs[k].StdDev()
			}
			return mcResult{vwl: vwl, sigma: sig}, nil
		})
		if err != nil {
			return nil, err
		}
		transients += len(cfg.MCVWLs) * cfg.MCSamples

		var sigSamples []poly.SampleN
		for _, r := range results {
			for k, t := range tGrid {
				sigSamples = append(sigSamples, poly.SampleN{Xs: []float64{t * timeScale, r.vwl}, Z: r.sigma[k]})
			}
		}
		sigModel, sigRMS, err := poly.FitSeparable(sigSamples, cfg.DegSigmaT, cfg.DegSigmaVWL, 80, 1e-13)
		if err != nil {
			return nil, fmt.Errorf("core: mismatch sigma fit: %w", err)
		}
		m.Discharge.Sigma = sigModel
		m.Report.SigmaRMSVolts = sigRMS
	}

	// --- Eq. 7: write energy over (VDD × T). ---
	{
		var samples []poly.SampleN
		for _, vdd := range cfg.VDDs {
			for _, tc := range cfg.Temps {
				cond := device.PVT{Corner: device.CornerTT, VDD: vdd, TempC: tc}
				e, err := sram.WriteEnergy(cfg.Tech, spice.DefaultCBL, cond, cfg.Spice)
				if err != nil {
					return nil, fmt.Errorf("core: write energy at %v: %w", cond, err)
				}
				samples = append(samples, poly.SampleN{Xs: []float64{vdd, tc}, Z: e})
				transients++
			}
		}
		wr, wrRMS, err := poly.FitSeparable(samples, cfg.DegWriteVDD, cfg.DegWriteT, 80, 1e-14)
		if err != nil {
			return nil, fmt.Errorf("core: write energy fit: %w", err)
		}
		m.Energy.Write = wr
		m.Report.WriteRMSJoules = wrRMS
	}

	// --- Eq. 8: discharge (recharge) energy over (VDD, ΔV, T). ---
	{
		var samples []poly.SampleN
		for _, c := range slices.Concat(nominal, vddVar, tempVar) {
			for k := range tGrid {
				dv := c.vdd - c.vbl[k]
				if dv < 0 {
					dv = 0
				}
				e := spice.DefaultCBL * c.vdd * dv
				samples = append(samples, poly.SampleN{Xs: []float64{c.vdd, dv, c.tempC}, Z: e})
			}
		}
		edc, edcRMS, err := poly.FitProduct(samples, []int{cfg.DegEdcVDD, cfg.DegEdcDV, cfg.DegEdcT}, 60, 1e-14)
		if err != nil {
			return nil, fmt.Errorf("core: discharge energy fit: %w", err)
		}
		m.Energy.Discharge = edc
		m.Report.DischRMSJoules = edcRMS
	}

	m.Report.GoldenTransients = transients
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// fitCurves fits the polynomial p of the given degree to z ≈ w·p(x) over
// every t-grid point of the golden curves, where at gives the (x, w, z) of
// curve c's point k at time t.
func fitCurves(curves []goldenCurve, tGrid []float64, degree int, at func(c goldenCurve, k int, t float64) (x, w, z float64)) (poly.Polynomial, error) {
	var xs, ws, zs []float64
	for _, c := range curves {
		for k, t := range tGrid {
			x, w, z := at(c, k, t)
			xs, ws, zs = append(xs, x), append(ws, w), append(zs, z)
		}
	}
	p, _, err := poly.FitWeighted(xs, ws, zs, degree)
	return p, err
}

// curveRMS is the RMS error of the deterministic model (Eq. 3–5) against
// the golden curves over the t-grid.
func (m *DischargeModel) curveRMS(curves []goldenCurve, tGrid []float64) float64 {
	var resid []float64
	for _, c := range curves {
		for k, t := range tGrid {
			resid = append(resid, m.VBL(t, c.vwl, c.vdd, c.tempC)-c.vbl[k])
		}
	}
	return stats.RMS(resid)
}
