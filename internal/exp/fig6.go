package exp

import (
	"fmt"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/refdata"
	"optima/internal/report"
	"optima/internal/spice"
	"optima/internal/stats"
)

// Fig6Data holds the model-evaluation artifacts (paper Fig. 6): residual
// charts for the supply/temperature/mismatch/energy models and the RMS
// table with paper-vs-measured columns.
type Fig6Data struct {
	SupplyChart   *report.Chart
	TempChart     *report.Chart
	MismatchChart *report.Chart
	EnergyChart   *report.Chart
	RMSTable      *report.Table
}

// Fig6 evaluates the calibrated models against fresh golden simulation at
// off-grid probe points and assembles the Fig. 6 artifacts.
func (c *Context) Fig6() (*Fig6Data, error) {
	out := &Fig6Data{}
	m := c.Model

	// 6a: supply model — model (lines) vs golden (sampled) at VDD corners.
	out.SupplyChart = &report.Chart{Title: "Fig. 6a — Supply voltage model vs golden", XLabel: "t [ns]", YLabel: "V_BL [V]"}
	for _, vdd := range []float64{0.9, 1.0, 1.1} {
		cond := device.PVT{Corner: device.CornerTT, VDD: vdd, TempC: device.NominalTempC}
		ts := stats.Linspace(0.1e-9, 2e-9, 12)
		golden, err := c.goldenCurve(0.9, cond, ts)
		if err != nil {
			return nil, err
		}
		model := make([]float64, len(ts))
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = t * 1e9
			model[i] = m.Discharge.VBL(t, 0.9, vdd, cond.TempC)
		}
		if err := out.SupplyChart.AddSeries(fmt.Sprintf("model %0.1fV", vdd), xs, model); err != nil {
			return nil, err
		}
		if err := out.SupplyChart.AddSeries(fmt.Sprintf("golden %0.1fV", vdd), xs, golden); err != nil {
			return nil, err
		}
	}

	// 6b: temperature model residual at hot/cold.
	out.TempChart = &report.Chart{Title: "Fig. 6b — Temperature model residual", XLabel: "t [ns]", YLabel: "model − golden [mV]"}
	for _, tc := range []float64{0, 80} {
		cond := device.PVT{Corner: device.CornerTT, VDD: device.NominalVDD, TempC: tc}
		ts := stats.Linspace(0.1e-9, 2e-9, 12)
		golden, err := c.goldenCurve(0.9, cond, ts)
		if err != nil {
			return nil, err
		}
		xs := make([]float64, len(ts))
		resid := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = t * 1e9
			resid[i] = (m.Discharge.VBL(t, 0.9, cond.VDD, tc) - golden[i]) * 1e3
		}
		if err := out.TempChart.AddSeries(fmt.Sprintf("T=%.0f °C", tc), xs, resid); err != nil {
			return nil, err
		}
	}

	// 6c: mismatch σ(t) model per word-line voltage.
	out.MismatchChart = &report.Chart{Title: "Fig. 6c — Mismatch σ model", XLabel: "t [ns]", YLabel: "σ [mV]"}
	for _, vwl := range []float64{0.5, 0.75, 1.0} {
		ts := stats.Linspace(0.1e-9, 2e-9, 20)
		xs := make([]float64, len(ts))
		ys := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = t * 1e9
			ys[i] = m.Discharge.SigmaAt(t, vwl) * 1e3
		}
		if err := out.MismatchChart.AddSeries(fmt.Sprintf("V_WL=%.2f V", vwl), xs, ys); err != nil {
			return nil, err
		}
	}

	// 6d: discharge energy model vs word-line voltage at t = 2 ns.
	out.EnergyChart = &report.Chart{Title: "Fig. 6d — Discharge energy model", XLabel: "V_WL [V]", YLabel: "E [fJ]"}
	var exs, eys, egold []float64
	cond := device.Nominal()
	for _, vwl := range stats.Linspace(0.4, 1.0, 13) {
		dv := m.Discharge.DeltaV(2e-9, vwl, cond.VDD, cond.TempC)
		exs = append(exs, vwl)
		eys = append(eys, m.Energy.DischargeEnergy(true, cond.VDD, dv, cond.TempC)*1e15)
		dp := spice.NewDischargePath(c.Tech, vwl, cond)
		res, err := dp.Discharge(2e-9, c.Spice, 0)
		if err != nil {
			return nil, err
		}
		egold = append(egold, spice.DefaultCBL*cond.VDD*(cond.VDD-res.Waveform.Final()[0])*1e15)
	}
	if err := out.EnergyChart.AddSeries("model", exs, eys); err != nil {
		return nil, err
	}
	if err := out.EnergyChart.AddSeries("golden", exs, egold); err != nil {
		return nil, err
	}

	// RMS table: paper vs measured.
	paper := refdata.Figure6RMS()
	r := m.Report
	tbl := report.NewTable("Fig. 6 — RMS modeling errors (paper vs measured)",
		"model", "paper", "measured")
	tbl.AddRow("basic discharge [mV]", paper.BaseMV, r.BaseRMSVolts*1e3)
	tbl.AddRow("supply voltage [mV]", paper.VDDMV, r.VDDRMSVolts*1e3)
	tbl.AddRow("temperature [mV]", paper.TempMV, r.TempRMSVolts*1e3)
	tbl.AddRow("mismatch σ [mV]", paper.SigmaMV, r.SigmaRMSVolts*1e3)
	tbl.AddRow("write energy [fJ]", paper.WriteFJ, r.WriteRMSJoules*1e15)
	tbl.AddRow("discharge energy [fJ]", paper.DischargeFJ, r.DischRMSJoules*1e15)
	out.RMSTable = tbl
	return out, nil
}

// goldenCurve samples one golden transient at the given instants. The
// word-line voltage follows the supply-tracking convention of the
// calibration sweeps.
func (c *Context) goldenCurve(vwl float64, cond device.PVT, ts []float64) ([]float64, error) {
	dp := spice.NewDischargePath(c.Tech, core.SupplyScaledVWL(vwl, cond.VDD), cond)
	last := ts[len(ts)-1]
	res, err := dp.Discharge(last, c.Spice, 0)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = res.Waveform.NodeAt(0, t)
	}
	return out, nil
}
