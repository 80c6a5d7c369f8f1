package exp

import (
	"fmt"

	"optima/internal/device"
	"optima/internal/dse"
	"optima/internal/mult"
	"optima/internal/refdata"
	"optima/internal/report"
	"optima/internal/stats"
)

// Fig7Data holds the design-space exploration artifacts (paper Fig. 7).
type Fig7Data struct {
	// LeftError/LeftEnergy: versus V_DAC,FS at τ0 = 0.16 ns, one series per
	// V_DAC,0 (the paper's left panel).
	LeftError  *report.Chart
	LeftEnergy *report.Chart
	// RightError/RightEnergy: versus τ0 at V_DAC,0 = 0.4 V, one series per
	// V_DAC,FS (the paper's right panel).
	RightError  *report.Chart
	RightEnergy *report.Chart
	// CornersTable lists all 48 corners with their metrics.
	CornersTable *report.Table
	Metrics      []dse.Metrics
}

// Fig7 runs the 48-corner design-space exploration and assembles the
// paper's Fig. 7 panels.
func (c *Context) Fig7() (*Fig7Data, error) {
	mets, err := c.Sweep()
	if err != nil {
		return nil, err
	}
	out := &Fig7Data{Metrics: mets}
	grid := dse.DefaultGrid()

	find := func(tau, v0, fs float64) (dse.Metrics, bool) {
		for _, m := range mets {
			if m.Config.Tau0 == tau && m.Config.VDAC0 == v0 && m.Config.VDACFS == fs {
				return m, true
			}
		}
		return dse.Metrics{}, false
	}

	out.LeftError = &report.Chart{Title: "Fig. 7 left — Avg error vs V_DAC,FS (τ0 = 0.16 ns)", XLabel: "V_DAC,FS [V]", YLabel: "avg error [LSB]"}
	out.LeftEnergy = &report.Chart{Title: "Fig. 7 left — Avg energy vs V_DAC,FS (τ0 = 0.16 ns)", XLabel: "V_DAC,FS [V]", YLabel: "avg energy/op [fJ]"}
	for _, v0 := range grid.VDAC0s {
		var xs, errs, energies []float64
		for _, fs := range grid.VDACFSs {
			m, ok := find(0.16e-9, v0, fs)
			if !ok {
				continue
			}
			xs = append(xs, fs)
			errs = append(errs, m.EpsMul)
			energies = append(energies, m.EMul*1e15)
		}
		name := fmt.Sprintf("V_DAC,0=%.1f V", v0)
		if err := out.LeftError.AddSeries(name, xs, errs); err != nil {
			return nil, err
		}
		if err := out.LeftEnergy.AddSeries(name, xs, energies); err != nil {
			return nil, err
		}
	}

	out.RightError = &report.Chart{Title: "Fig. 7 right — Avg error vs τ0 (V_DAC,0 = 0.4 V)", XLabel: "τ0 [ns]", YLabel: "avg error [LSB]"}
	out.RightEnergy = &report.Chart{Title: "Fig. 7 right — Avg energy vs τ0 (V_DAC,0 = 0.4 V)", XLabel: "τ0 [ns]", YLabel: "avg energy/op [fJ]"}
	for _, fs := range grid.VDACFSs {
		var xs, errs, energies []float64
		for _, tau := range grid.Tau0s {
			m, ok := find(tau, 0.4, fs)
			if !ok {
				continue
			}
			xs = append(xs, tau*1e9)
			errs = append(errs, m.EpsMul)
			energies = append(energies, m.EMul*1e15)
		}
		name := fmt.Sprintf("V_DAC,FS=%.1f V", fs)
		if err := out.RightError.AddSeries(name, xs, errs); err != nil {
			return nil, err
		}
		if err := out.RightEnergy.AddSeries(name, xs, energies); err != nil {
			return nil, err
		}
	}

	tbl := report.NewTable("Fig. 7 — 48-corner design-space exploration",
		"τ0 [ns]", "V_DAC,0 [V]", "V_DAC,FS [V]", "ϵ_mul [LSB]", "E_mul [fJ]", "σ@max [LSB]", "FOM [1/(LSB·fJ)]")
	for _, m := range mets {
		tbl.AddRow(m.Config.Tau0*1e9, m.Config.VDAC0, m.Config.VDACFS,
			m.EpsMul, m.EMul*1e15, m.SigmaMaxLSB, m.FOM())
	}
	out.CornersTable = tbl
	return out, nil
}

// Table1Data holds the selected-corner artifacts (paper Table I).
type Table1Data struct {
	Selection dse.Selection
	Table     *report.Table
	// EnergyPerOpPJ is the average energy of a full operation (word write
	// plus multiplication) at the fom corner — the paper's 1.05 pJ claim.
	EnergyPerOpPJ float64
	// WorstSigmaMV is the largest analog σ among the selected corners
	// (paper: 5.04 mV).
	WorstSigmaMV float64
}

// Table1 selects the fom/power/variation corners and builds the
// paper-vs-measured table.
func (c *Context) Table1() (*Table1Data, error) {
	sel, err := c.Selection()
	if err != nil {
		return nil, err
	}
	out := &Table1Data{Selection: sel}
	paper := refdata.Table1()
	tbl := report.NewTable("Table I — Selected design corners (paper → measured)",
		"corner", "τ0 [ns]", "V_DAC,0 [V]", "V_DAC,FS [V]", "ϵ_mul [LSB]", "E_mul [fJ]")
	rows := []struct {
		name  string
		m     dse.Metrics
		paper refdata.CornerRow
	}{
		{"fom", sel.FOM, paper[0]},
		{"power", sel.Power, paper[1]},
		{"variation", sel.Variation, paper[2]},
	}
	for _, r := range rows {
		tbl.AddRow(r.name+" (paper)", r.paper.Tau0NS, r.paper.VDAC0, r.paper.VDACFS, r.paper.EpsMulLSB, r.paper.EMulFJ)
		tbl.AddRow(r.name+" (measured)", r.m.Config.Tau0*1e9, r.m.Config.VDAC0, r.m.Config.VDACFS,
			r.m.EpsMul, r.m.EMul*1e15)
		if s := r.m.SigmaMaxVolt * 1e3; s > out.WorstSigmaMV {
			out.WorstSigmaMV = s
		}
	}
	out.Table = tbl
	out.EnergyPerOpPJ = (c.Model.Energy.WriteEnergy(1.0, 27) + sel.FOM.EMul) * 1e12
	return out, nil
}

// Fig8Data holds the corner PVT analysis artifacts (paper Fig. 8).
type Fig8Data struct {
	ErrorByResult *report.Chart
	SigmaByResult *report.Chart
	ErrorVsVDD    *report.Chart
	ErrorVsTemp   *report.Chart
}

// Fig8 profiles the three selected corners by expected result and under
// supply/temperature excursions.
func (c *Context) Fig8() (*Fig8Data, error) {
	sel, err := c.Selection()
	if err != nil {
		return nil, err
	}
	out := &Fig8Data{
		ErrorByResult: &report.Chart{Title: "Fig. 8 left — Avg error vs expected result", XLabel: "expected result", YLabel: "avg error [LSB]"},
		SigmaByResult: &report.Chart{Title: "Fig. 8 left — Analog σ vs expected result", XLabel: "expected result", YLabel: "σ [LSB]"},
		ErrorVsVDD:    &report.Chart{Title: "Fig. 8 right — Avg error vs supply", XLabel: "VDD [V]", YLabel: "avg error [LSB]"},
		ErrorVsTemp:   &report.Chart{Title: "Fig. 8 right — Avg error vs temperature", XLabel: "T [°C]", YLabel: "avg error [LSB]"},
	}
	corners := []struct {
		name string
		cfg  mult.Config
	}{
		{"fom", sel.FOM.Config},
		{"power", sel.Power.Config},
		{"variation", sel.Variation.Config},
	}
	for _, corner := range corners {
		prof, err := dse.ProfileByResult(c.Model, corner.cfg, device.Nominal())
		if err != nil {
			return nil, err
		}
		xs := make([]float64, len(prof.Expected))
		for i, e := range prof.Expected {
			xs[i] = float64(e)
		}
		if err := out.ErrorByResult.AddSeries(corner.name, xs, prof.AvgError); err != nil {
			return nil, err
		}
		if err := out.SigmaByResult.AddSeries(corner.name, xs, prof.SigmaLSB); err != nil {
			return nil, err
		}
		vddSweep, err := dse.SweepVDD(c.Engine(), corner.cfg, stats.Linspace(0.90, 1.10, 9))
		if err != nil {
			return nil, err
		}
		if err := out.ErrorVsVDD.AddSeries(corner.name, vddSweep.X, vddSweep.AvgError); err != nil {
			return nil, err
		}
		tempSweep, err := dse.SweepTemp(c.Engine(), corner.cfg, stats.Linspace(0, 60, 7))
		if err != nil {
			return nil, err
		}
		if err := out.ErrorVsTemp.AddSeries(corner.name, tempSweep.X, tempSweep.AvgError); err != nil {
			return nil, err
		}
	}
	return out, nil
}
