package dse

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/spice"
	"optima/internal/stats"
)

var (
	fixtureOnce  sync.Once
	fixtureModel *core.Model
	fixtureErr   error
)

func testModel(t *testing.T) *core.Model {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureModel, fixtureErr = core.Calibrate(core.QuickCalibration())
	})
	if fixtureErr != nil {
		t.Fatalf("calibration fixture: %v", fixtureErr)
	}
	return fixtureModel
}

func TestDefaultGridHas48Corners(t *testing.T) {
	cfgs := DefaultGrid().Configs()
	if len(cfgs) != 48 {
		t.Fatalf("grid has %d corners, want 48", len(cfgs))
	}
	seen := map[mult.Config]bool{}
	for _, c := range cfgs {
		if seen[c] {
			t.Fatalf("duplicate corner %v", c)
		}
		seen[c] = true
	}
}

func TestGridSkipsInvalidCombos(t *testing.T) {
	g := Grid{Tau0s: []float64{1e-10}, VDAC0s: []float64{0.8}, VDACFSs: []float64{0.7}}
	if got := len(g.Configs()); got != 0 {
		t.Fatalf("invalid combos kept: %d", got)
	}
}

func TestEvaluateMetricsSanity(t *testing.T) {
	m := testModel(t)
	met, err := Evaluate(m, mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}, device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if met.EpsMul <= 0 || met.EpsMul > 20 {
		t.Fatalf("ϵ = %g outside plausible range", met.EpsMul)
	}
	if met.EMul < 20e-15 || met.EMul > 200e-15 {
		t.Fatalf("E = %g J outside plausible range", met.EMul)
	}
	if met.SigmaMaxLSB <= 0 || met.SigmaMaxVolt <= 0 || met.LSBVolt <= 0 {
		t.Fatal("σ/LSB fields not populated")
	}
	if met.FOM() <= 0 {
		t.Fatal("FOM must be positive")
	}
	// ϵ̄ decomposes into the small/large means (128 pairs in each half is
	// not exact — the split is by product value — but both must contribute).
	if met.EpsSmall <= 0 || met.EpsLarge <= 0 {
		t.Fatal("split errors not populated")
	}
}

func TestSweepDeterministic(t *testing.T) {
	m := testModel(t)
	grid := Grid{
		Tau0s:   []float64{0.16e-9, 0.24e-9},
		VDAC0s:  []float64{0.3, 0.4},
		VDACFSs: []float64{0.7, 1.0},
	}
	a, err := Sweep(m, grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(m, grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("sweep lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].EpsMul != b[i].EpsMul || a[i].EMul != b[i].EMul {
			t.Fatalf("sweep not deterministic at corner %d", i)
		}
	}
}

// TestSweepWorkerCountInvariance is the regression test for the grid-order
// guarantee: the full 48-corner sweep must produce bit-identical metrics —
// every field, in grid order — whether it runs on one worker or eight.
func TestSweepWorkerCountInvariance(t *testing.T) {
	m := testModel(t)
	serial, err := Sweep(m, DefaultGrid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(m, DefaultGrid(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 48 || len(parallel) != 48 {
		t.Fatalf("sweep lengths %d, %d, want 48", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("corner %d differs between workers=1 and workers=8:\n%+v\n%+v",
				i, serial[i], parallel[i])
		}
	}
	// Grid order: results must line up with the expanded configuration list.
	for i, cfg := range DefaultGrid().Configs() {
		if serial[i].Config != cfg {
			t.Fatalf("result %d is corner %v, want %v (grid order broken)", i, serial[i].Config, cfg)
		}
	}
}

func TestSelectRules(t *testing.T) {
	m := testModel(t)
	mets, err := Sweep(m, DefaultGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(mets)
	if err != nil {
		t.Fatal(err)
	}
	// The power corner minimizes energy over the whole sweep.
	for _, met := range mets {
		if met.EMul < sel.Power.EMul {
			t.Fatalf("power corner not minimal: %v has %g < %g", met.Config, met.EMul, sel.Power.EMul)
		}
		if met.FOM() > sel.FOM.FOM() {
			t.Fatalf("FOM corner not maximal")
		}
	}
	// The paper's power corner: smallest τ0, lowest V_DAC,0 and full scale.
	want := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 0.7}
	if sel.Power.Config != want {
		t.Errorf("power corner = %v, want %v (paper Table I)", sel.Power.Config, want)
	}
	// The fom corner should sit at V_DAC,0 = 0.3 V with full scale 1.0 V
	// (paper Table I); τ0 may differ by one grid step on our substrate.
	if sel.FOM.Config.VDAC0 != 0.3 || sel.FOM.Config.VDACFS != 1.0 {
		t.Errorf("fom corner = %v, want V_DAC,0=0.3, FS=1.0", sel.FOM.Config)
	}
	// The variation corner must trade small-operand accuracy for robustness
	// at large operands (the paper's Fig. 8 story).
	if sel.Variation.EpsSmall <= sel.Variation.EpsLarge {
		t.Errorf("variation corner lacks the small-operand penalty: small %g, large %g",
			sel.Variation.EpsSmall, sel.Variation.EpsLarge)
	}
	if _, err := Select(nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestParetoFrontProperties(t *testing.T) {
	m := testModel(t)
	mets, err := Sweep(m, DefaultGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(mets)
	if len(front) == 0 || len(front) > len(mets) {
		t.Fatalf("front size %d", len(front))
	}
	// Sorted by energy and mutually non-dominating.
	for i := 1; i < len(front); i++ {
		if front[i].EMul < front[i-1].EMul {
			t.Fatal("front not sorted by energy")
		}
		if front[i].EpsMul >= front[i-1].EpsMul {
			t.Fatal("front member dominated by its neighbor")
		}
	}
	// No swept corner dominates a front member.
	for _, f := range front {
		for _, m := range mets {
			if m.EpsMul < f.EpsMul && m.EMul < f.EMul {
				t.Fatalf("front member %v dominated by %v", f.Config, m.Config)
			}
		}
	}
}

func TestExpectedAbsErrorAnalytic(t *testing.T) {
	// Zero noise: plain quantization error.
	if got := engine.ExpectedAbsError(10.4, 0, 1, 10); got != 0 {
		t.Fatalf("σ=0 rounding: %g, want 0", got)
	}
	if got := engine.ExpectedAbsError(10.6, 0, 1, 10); got != 1 {
		t.Fatalf("σ=0 rounding: %g, want 1", got)
	}
	// Large noise: E|X−k| for X ~ N(k, σ) quantized ≈ σ·√(2/π).
	sigma := 5.0
	got := engine.ExpectedAbsError(100, sigma, 1, 100)
	want := sigma * math.Sqrt(2/math.Pi)
	if math.Abs(got-want) > 0.1*want {
		t.Fatalf("Gaussian mean abs = %g, want ≈%g", got, want)
	}
	// Clamping at zero: mean below range floor.
	got = engine.ExpectedAbsError(-3, 0.5, 1, 0)
	if got > 0.05 {
		t.Fatalf("clamped-to-zero error %g, want ≈0", got)
	}
}

func TestMCValidationMatchesAnalytic(t *testing.T) {
	m := testModel(t)
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}
	met, err := Evaluate(m, cfg, device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MCValidation(m, cfg, device.Nominal(), 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc-met.EpsMul) > 0.35*met.EpsMul {
		t.Fatalf("MC ϵ̄ %g vs analytic %g disagree by >35%%", mc, met.EpsMul)
	}
}

func TestProfileByResult(t *testing.T) {
	m := testModel(t)
	prof, err := ProfileByResult(m, mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}, device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Expected) == 0 || len(prof.Expected) != len(prof.AvgError) || len(prof.Expected) != len(prof.SigmaLSB) {
		t.Fatal("profile slices inconsistent")
	}
	// Expected values are the distinct products of 4-bit operands.
	if prof.Expected[0] != 0 || prof.Expected[len(prof.Expected)-1] != 225 {
		t.Fatalf("expected range [%d, %d]", prof.Expected[0], prof.Expected[len(prof.Expected)-1])
	}
	// σ must grow with the expected result (deeper discharges).
	first, last := prof.SigmaLSB[1], prof.SigmaLSB[len(prof.SigmaLSB)-1]
	if last <= first {
		t.Fatalf("σ profile not increasing: %g → %g", first, last)
	}
}

func TestConditionSweeps(t *testing.T) {
	m := testModel(t)
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}
	eng := engine.New(engine.Behavioral{Model: m}, 0)
	vdd, err := SweepVDD(eng, cfg, []float64{0.9, 1.0, 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(vdd.X) != 3 {
		t.Fatal("VDD sweep size")
	}
	// Error at nominal must be the smallest (the trim is nominal-calibrated).
	if vdd.AvgError[1] > vdd.AvgError[0] || vdd.AvgError[1] > vdd.AvgError[2] {
		t.Fatalf("VDD sweep errors %v: nominal not minimal", vdd.AvgError)
	}
	tmp, err := SweepTemp(eng, cfg, []float64{0, 27, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(tmp.X) != 3 {
		t.Fatal("temperature sweep size")
	}
	for _, e := range tmp.AvgError {
		if e <= 0 || math.IsNaN(e) {
			t.Fatalf("temperature sweep error %g invalid", e)
		}
	}
	// The nominal-VDD corner is shared between the two sweeps: the engine
	// must have served one of the two from cache.
	if st := eng.Stats(); st.Hits < 1 || st.Misses != 5 {
		t.Fatalf("condition sweeps did not share the cache: %v", st)
	}
}

func TestGoldenCornerCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-simulation bound")
	}
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}
	check, err := GoldenCornerCheck(core.QuickCalibration().Tech, cfg, spice.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(check.Corners) != 3 || len(check.AvgError) != 3 {
		t.Fatalf("corner check incomplete: %+v", check)
	}
	// TT (index 0) uses the matching trim: it must be the most accurate.
	if check.AvgError[0] > check.AvgError[1] || check.AvgError[0] > check.AvgError[2] {
		t.Errorf("TT error %.2f not the smallest: FF %.2f, SS %.2f",
			check.AvgError[0], check.AvgError[1], check.AvgError[2])
	}
	// The trim, then one 16×4 table per corner.
	if want := mult.OperandMax + 1 + 3*mult.TableTransients; check.Transients != want {
		t.Fatalf("%d transients counted, want %d", check.Transients, want)
	}
	// AvgError is the per-pair path's mean, bit for bit.
	trim, err := mult.CalibrateGoldenTrim(core.QuickCalibration().Tech, cfg, spice.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, corner := range check.Corners {
		cond := device.PVT{Corner: corner, VDD: device.NominalVDD, TempC: device.NominalTempC}
		g, err := mult.NewGoldenWithTrim(core.QuickCalibration().Tech, cfg, cond, spice.DefaultConfig(), trim)
		if err != nil {
			t.Fatal(err)
		}
		var acc stats.Accumulator
		for a := uint(0); a <= mult.OperandMax; a++ {
			for d := uint(0); d <= mult.OperandMax; d++ {
				r, err := g.MultiplyCells(a, d, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				acc.Add(math.Abs(float64(r.ErrorLSB())))
			}
		}
		if want := acc.Mean(); math.Float64bits(check.AvgError[i]) != math.Float64bits(want) {
			t.Fatalf("%v: AvgError %v, per-pair path gives %v", corner, check.AvgError[i], want)
		}
	}
}

// TestGridValidate pins the empty-axis bugfix: a grid with any empty axis
// slice — or no physically valid combination at all — must be a
// descriptive error from Sweep/SweepWith, never a silently empty result.
func TestGridValidate(t *testing.T) {
	m := testModel(t)
	good := DefaultGrid()
	if err := good.Validate(); err != nil {
		t.Fatalf("default grid invalid: %v", err)
	}
	cases := []struct {
		name string
		grid Grid
	}{
		{"empty-tau0", Grid{VDAC0s: []float64{0.3}, VDACFSs: []float64{0.9}}},
		{"empty-vdac0", Grid{Tau0s: []float64{0.2e-9}, VDACFSs: []float64{0.9}}},
		{"empty-vdacfs", Grid{Tau0s: []float64{0.2e-9}, VDAC0s: []float64{0.3}}},
		{"all-empty", Grid{}},
		{"no-valid-corner", Grid{Tau0s: []float64{0.2e-9}, VDAC0s: []float64{0.9}, VDACFSs: []float64{0.7}}},
	}
	for _, tc := range cases {
		if err := tc.grid.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", tc.name)
		}
		if _, err := Sweep(m, tc.grid, 1); err == nil {
			t.Errorf("%s: Sweep returned no error for an unusable grid", tc.name)
		}
		if _, err := SweepWith(engine.New(engine.Behavioral{Model: m}, 1), tc.grid, device.Nominal()); err == nil {
			t.Errorf("%s: SweepWith returned no error for an unusable grid", tc.name)
		}
	}
}

// synthetic builds a metrics point for Pareto edge-case tests.
func synthetic(tau float64, eps, energy float64) Metrics {
	return Metrics{
		Config: mult.Config{Tau0: tau, VDAC0: 0.3, VDACFS: 1.0},
		EpsMul: eps, EMul: energy,
	}
}

// TestParetoFrontEdgeCases covers the degenerate inputs the sweep-backed
// property test cannot reach: duplicates, a single corner, and
// all-dominated ties.
func TestParetoFrontEdgeCases(t *testing.T) {
	// Single corner: the front is that corner.
	single := []Metrics{synthetic(1e-10, 2, 5)}
	if front := ParetoFront(single); !reflect.DeepEqual(front, single) {
		t.Fatalf("single-corner front = %v", front)
	}

	// Exact duplicates: neither dominates the other (dominance needs a
	// strict improvement), so both duplicates stay on the front.
	dup := []Metrics{
		synthetic(1e-10, 2, 5),
		synthetic(2e-10, 2, 5),
		synthetic(3e-10, 3, 6), // dominated by both duplicates
	}
	front := ParetoFront(dup)
	if len(front) != 2 {
		t.Fatalf("duplicate front has %d points, want both duplicates (2)", len(front))
	}
	for _, f := range front {
		if f.EpsMul != 2 || f.EMul != 5 {
			t.Fatalf("unexpected front member %+v", f)
		}
	}

	// All-dominated ties: corners tied in one metric but strictly worse in
	// the other are all dominated — the front collapses to the one optimum.
	ties := []Metrics{
		synthetic(1e-10, 1, 1),
		synthetic(2e-10, 1, 2), // ties eps, worse energy
		synthetic(3e-10, 2, 1), // ties energy, worse eps
		synthetic(4e-10, 2, 2), // worse in both
	}
	front = ParetoFront(ties)
	if len(front) != 1 || front[0].Config.Tau0 != 1e-10 {
		t.Fatalf("tie front = %+v, want only the (1,1) corner", front)
	}

	// Empty input: empty front, no panic.
	if front := ParetoFront(nil); len(front) != 0 {
		t.Fatalf("nil input produced front %v", front)
	}
}

// condBackend synthesizes condition-dependent metrics: eps grows with the
// configured per-corner excursion penalty, so robust reductions are
// verifiable in closed form. failVDD, when non-zero, errors at that supply.
type condBackend struct {
	failVDD float64
}

func (c *condBackend) Name() string { return "cond-fake" }

func (c *condBackend) EvaluateCell(_ engine.Eval, j engine.Job) (engine.Metrics, error) {
	cfg, cond := j.Config, j.Cond
	if c.failVDD != 0 && cond.VDD == c.failVDD {
		return engine.Metrics{}, fmt.Errorf("synthetic condition failure")
	}
	// Excursion severity: 0 at nominal, growing with |ΔVDD| and |ΔT|.
	excursion := math.Abs(cond.VDD-device.NominalVDD)*10 + math.Abs(cond.TempC-device.NominalTempC)/30
	return engine.Metrics{
		Config: cfg,
		Cond:   cond,
		EpsMul: cfg.Tau0*1e9 + cfg.VDAC0*excursion,
		EMul:   cfg.VDACFS*1e-15 + excursion*1e-16,
	}, nil
}

func robustTestSet(t *testing.T) engine.ConditionSet {
	t.Helper()
	set, err := engine.ParseConditionSet("TT@1V@27C,SS@0.9V@60C,FF@1.1V@0C")
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestRobustSweepReductions checks the cross-condition summary against the
// closed-form metrics of the synthetic backend: grid order, worst/mean/
// spread values, and the arg-worst conditions.
func TestRobustSweepReductions(t *testing.T) {
	grid := Grid{
		Tau0s:   []float64{0.16e-9, 0.24e-9},
		VDAC0s:  []float64{0.3, 0.5},
		VDACFSs: []float64{0.8, 1.0},
	}
	set := robustTestSet(t)
	eng := engine.New(&condBackend{}, 4)
	rms, err := RobustSweep(eng, grid, set)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := grid.Configs()
	if len(rms) != len(cfgs) {
		t.Fatalf("robust sweep returned %d summaries, want %d", len(rms), len(cfgs))
	}
	back := &condBackend{}
	for i, r := range rms {
		if r.Config != cfgs[i] {
			t.Fatalf("summary %d is %v, want grid order %v", i, r.Config, cfgs[i])
		}
		if len(r.PerCond) != set.Len() {
			t.Fatalf("summary %d has %d per-condition metrics, want %d", i, len(r.PerCond), set.Len())
		}
		var worst, minEps, sum float64
		worstCond := set.At(0)
		for j := 0; j < set.Len(); j++ {
			met, _ := back.EvaluateCell(engine.Eval{}, engine.Job{Config: r.Config, Cond: set.At(j)})
			if r.PerCond[j] != met {
				t.Fatalf("summary %d condition %d metrics differ from the backend", i, j)
			}
			if j == 0 || met.EpsMul > worst {
				worst, worstCond = met.EpsMul, set.At(j)
			}
			if j == 0 || met.EpsMul < minEps {
				minEps = met.EpsMul
			}
			sum += met.EpsMul
		}
		if r.WorstEps != worst || r.WorstEpsCond != worstCond {
			t.Fatalf("summary %d worst eps %v at %v, want %v at %v",
				i, r.WorstEps, r.WorstEpsCond, worst, worstCond)
		}
		if math.Abs(r.MeanEps-sum/float64(set.Len())) > 1e-15 {
			t.Fatalf("summary %d mean eps %v, want %v", i, r.MeanEps, sum/float64(set.Len()))
		}
		if math.Abs(r.SpreadEps-(worst-minEps)) > 1e-15 {
			t.Fatalf("summary %d spread %v, want %v", i, r.SpreadEps, worst-minEps)
		}
		// The synthetic backend's worst excursion is SS@0.9V@60C for eps
		// (both VDD and temperature excursions add) — a sanity anchor that
		// the arg-worst is a real condition of the set.
		if set.Index(r.WorstEpsCond) < 0 || set.Index(r.WorstEMulCond) < 0 {
			t.Fatalf("summary %d arg-worst conditions not members of the set", i)
		}
		// Score projects the worst case onto the Pareto plane.
		s := r.Score()
		if s.EpsMul != r.WorstEps || s.EMul != r.WorstEMul || s.Config != r.Config || s.Cond != r.WorstEpsCond {
			t.Fatalf("summary %d Score() = %+v inconsistent", i, s)
		}
	}

	// Worker invariance of the whole robust sweep.
	again, err := RobustSweep(engine.New(&condBackend{}, 1), grid, set)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rms, again) {
		t.Fatal("robust sweep differs between workers=4 and workers=1")
	}
}

// TestConditionSweepErrorNamesFailingPoint pins the error-path fix: a
// failing excursion point must be named — the swept variable, the sweep's
// points, and (via the engine error) the exact failing condition.
func TestConditionSweepErrorNamesFailingPoint(t *testing.T) {
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}
	eng := engine.New(&condBackend{failVDD: 0.95}, 2)
	_, err := SweepVDD(eng, cfg, []float64{0.9, 0.95, 1.0})
	if err == nil {
		t.Fatal("failing supply point did not error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "VDD sweep") {
		t.Fatalf("error does not name the swept variable: %v", err)
	}
	if !strings.Contains(msg, "0.95") {
		t.Fatalf("error does not name the failing supply point: %v", err)
	}

	// Temperature sweeps at nominal supply avoid the failing VDD: no error.
	if _, err := SweepTemp(eng, cfg, []float64{0, 27, 60}); err != nil {
		t.Fatalf("temperature sweep at nominal supply failed: %v", err)
	}
	// An empty point list is an empty curve, not an error; a duplicated
	// point is a named error.
	empty, err := SweepVDD(eng, cfg, nil)
	if err != nil || len(empty.X) != 0 {
		t.Fatalf("empty sweep: %v, %d points", err, len(empty.X))
	}
	if _, err := SweepVDD(eng, cfg, []float64{1.0, 1.0}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicated sweep point: %v, want duplicate error", err)
	}
	// A failing temperature point is named too.
	tEng := engine.New(&condBackend{failVDD: device.NominalVDD}, 2)
	_, err = SweepTemp(tEng, cfg, []float64{0, 27, 60})
	if err == nil {
		t.Fatal("failing temperature sweep did not error")
	}
	if !strings.Contains(err.Error(), "temperature sweep") {
		t.Fatalf("error does not name the swept variable: %v", err)
	}
}

// TestRobustParetoFront: the worst-case front is non-dominated in
// (WorstEps, WorstEMul) and sorted by worst-case energy.
func TestRobustParetoFront(t *testing.T) {
	mk := func(tau, eps, e float64) RobustMetrics {
		return RobustMetrics{
			Config:    mult.Config{Tau0: tau, VDAC0: 0.3, VDACFS: 1.0},
			WorstEps:  eps,
			WorstEMul: e,
		}
	}
	rms := []RobustMetrics{
		mk(1e-10, 1, 3),
		mk(2e-10, 2, 2),
		mk(3e-10, 3, 1),
		mk(4e-10, 3, 3), // dominated
	}
	front := RobustParetoFront(rms)
	if len(front) != 3 {
		t.Fatalf("front has %d members, want 3", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i].WorstEMul < front[i-1].WorstEMul {
			t.Fatal("front not sorted by worst-case energy")
		}
	}
	for _, f := range front {
		if f.Config.Tau0 == 4e-10 {
			t.Fatal("dominated summary kept on the front")
		}
	}
	if got := RobustParetoFront(nil); len(got) != 0 {
		t.Fatalf("nil input produced front %v", got)
	}
}
