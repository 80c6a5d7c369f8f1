package exp

import (
	"strings"
	"sync"
	"testing"

	"optima/internal/core"
	"optima/internal/dataset"
	"optima/internal/device"
	"optima/internal/dnn"
	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/refdata"
)

var (
	fixtureOnce sync.Once
	fixtureCtx  *Context
	fixtureErr  error
)

func testContext(t *testing.T) *Context {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureCtx, fixtureErr = NewContext(core.QuickCalibration())
	})
	if fixtureErr != nil {
		t.Fatalf("context fixture: %v", fixtureErr)
	}
	return fixtureCtx
}

func TestFig1Artifacts(t *testing.T) {
	tbl, chart := Fig1()
	if tbl.NumRows() != 4 {
		t.Fatalf("Fig. 1 table has %d rows", tbl.NumRows())
	}
	if len(chart.Series) != 4 {
		t.Fatalf("Fig. 1 chart has %d series", len(chart.Series))
	}
	if !strings.Contains(tbl.String(), "IMAC") {
		t.Fatal("Fig. 1 table missing IMAC")
	}
}

func TestFig4Shapes(t *testing.T) {
	ctx := testContext(t)
	data, err := ctx.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(data.TimeChart.Series) != 5 {
		t.Fatalf("Fig. 4a has %d series", len(data.TimeChart.Series))
	}
	if len(data.VWLChart.Series) != 1 || len(data.VWLChart.Series[0].X) != 25 {
		t.Fatal("Fig. 4b series malformed")
	}
	// The V_WL curve must be monotone decreasing (more drive, deeper
	// discharge at the sampling instant).
	ys := data.VWLChart.Series[0].Y
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1]+1e-9 {
			t.Fatal("Fig. 4b curve not monotone")
		}
	}
}

func TestFig5SmallPopulation(t *testing.T) {
	ctx := testContext(t)
	data, err := ctx.Fig5(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, chart := range []*struct {
		name string
		c    interface{ seriesCount() int }
	}{} {
		_ = chart
	}
	if len(data.SupplyChart.Series) != 3 || len(data.TempChart.Series) != 3 || len(data.CornerChart.Series) != 3 {
		t.Fatal("Fig. 5a–c series counts wrong")
	}
	if len(data.MismatchChart.Series) == 0 {
		t.Fatal("Fig. 5d has no trajectories")
	}
	if data.MismatchSpreadMV <= 0 {
		t.Fatal("mismatch band not measured")
	}
}

func TestFig6Artifacts(t *testing.T) {
	ctx := testContext(t)
	data, err := ctx.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if data.RMSTable.NumRows() != 6 {
		t.Fatalf("RMS table has %d rows, want 6", data.RMSTable.NumRows())
	}
	if len(data.EnergyChart.Series) != 2 {
		t.Fatal("Fig. 6d must compare model and golden")
	}
}

func TestFig7PanelsAndSelectionCaching(t *testing.T) {
	ctx := testContext(t)
	data, err := ctx.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Metrics) != 48 || data.CornersTable.NumRows() != 48 {
		t.Fatal("sweep incomplete")
	}
	if len(data.LeftError.Series) != 3 || len(data.RightError.Series) != 4 {
		t.Fatal("Fig. 7 series counts wrong")
	}
	// Selection must reuse the cached sweep (same slice).
	selA, err := ctx.Selection()
	if err != nil {
		t.Fatal(err)
	}
	selB, err := ctx.Selection()
	if err != nil {
		t.Fatal(err)
	}
	if selA.FOM.Config != selB.FOM.Config {
		t.Fatal("selection not stable")
	}
}

func TestTable1PaperRows(t *testing.T) {
	ctx := testContext(t)
	data, err := ctx.Table1()
	if err != nil {
		t.Fatal(err)
	}
	s := data.Table.String()
	for _, needle := range []string{"fom (paper)", "fom (measured)", "power (paper)", "variation (measured)"} {
		if !strings.Contains(s, needle) {
			t.Fatalf("Table I missing row %q:\n%s", needle, s)
		}
	}
	if data.EnergyPerOpPJ <= 0 || data.WorstSigmaMV <= 0 {
		t.Fatal("headline metrics not populated")
	}
}

func TestFig8Artifacts(t *testing.T) {
	ctx := testContext(t)
	data, err := ctx.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for name, chart := range map[string]int{
		"error-by-result": len(data.ErrorByResult.Series),
		"sigma-by-result": len(data.SigmaByResult.Series),
		"error-vs-vdd":    len(data.ErrorVsVDD.Series),
		"error-vs-temp":   len(data.ErrorVsTemp.Series),
	} {
		if chart != 3 {
			t.Fatalf("%s has %d series, want 3 corners", name, chart)
		}
	}
}

func TestSpeedupTableRendering(t *testing.T) {
	is := SpeedupResult{Name: "input-space iteration", BehavioralTime: 1e6, GoldenTime: 100e6, Operations: 256}
	mc := SpeedupResult{Name: "mismatch Monte Carlo", BehavioralTime: 1e6, GoldenTime: 30e6}
	tbl := SpeedupTable(is, mc)
	s := tbl.String()
	if !strings.Contains(s, "100.0×") || !strings.Contains(s, "30.0×") {
		t.Fatalf("speed-up table wrong:\n%s", s)
	}
	if (SpeedupResult{}).Speedup() != 0 {
		t.Fatal("zero-duration speed-up must be 0")
	}
}

func TestDNNScaleHelpers(t *testing.T) {
	full := FullDNNScale()
	if len(full.Models) != 4 {
		t.Fatal("full protocol must cover all four networks")
	}
	bench := BenchDNNScale()
	if len(bench.Models) >= len(full.Models) || bench.VGGEpochs >= full.VGGEpochs {
		t.Fatal("bench scale is not reduced")
	}
	for _, m := range []string{"VGG16S", "VGG19S", "ResNet50S", "ResNet101S"} {
		if got := paperModelName(m); strings.HasSuffix(got, "S") {
			t.Fatalf("paper name for %s is %s", m, got)
		}
	}
	if paperModelName("custom") != "custom" {
		t.Fatal("unknown models must pass through")
	}
}

func TestCapDataset(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Name: "t", Classes: 2, TrainPerCls: 4, TestPerCls: 10, Noise: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	capDataset(ds, 6)
	if ds.Test.N != 6 || len(ds.TestY) != 6 {
		t.Fatalf("cap failed: %d samples, %d labels", ds.Test.N, len(ds.TestY))
	}
	capDataset(ds, 0) // no-op
	if ds.Test.N != 6 {
		t.Fatal("cap 0 must be a no-op")
	}
}

func TestRunDNNMinimal(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a network")
	}
	ctx := testContext(t)
	scale := DNNScale{
		Models:    []string{"VGG16S"},
		VGGEpochs: 1, ResNetEpochs: 1, TransferEpochs: 1, QATEpochs: 1,
		TestCap: 40, Seed: 5,
	}
	data, err := ctx.RunDNN(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.ImageNet) != 1 || len(data.CIFAR) != 1 {
		t.Fatal("row counts wrong")
	}
	row := data.ImageNet[0]
	if row.MultsMillions <= 0 {
		t.Fatal("missing MAC count")
	}
	for _, acc := range [][2]float64{row.Float32, row.Int4, row.Fom, row.Power, row.Variation} {
		if acc[0] < 0 || acc[0] > 100 || acc[1] < acc[0] {
			t.Fatalf("implausible accuracy pair %v", acc)
		}
	}
	if !strings.Contains(data.Table2.String(), "VGG16 (paper)") {
		t.Fatal("Table II missing paper rows")
	}
}

func TestSpeedupExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs golden transients")
	}
	ctx := testContext(t)
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 0.7}
	is, err := ctx.SpeedupInputSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if is.Speedup() <= 1 {
		t.Fatalf("behavioral slower than golden: %.2f×", is.Speedup())
	}
	if is.GoldenTransients == 0 {
		t.Fatal("golden transients not counted")
	}
	mc, err := ctx.SpeedupMonteCarlo(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Speedup() <= 1 {
		t.Fatalf("MC behavioral slower than golden: %.2f×", mc.Speedup())
	}
}

func TestContextWithModel(t *testing.T) {
	ctx := testContext(t)
	wrapped := NewContextWithModel(ctx.Model, ctx.Tech)
	if wrapped.Model != ctx.Model {
		t.Fatal("model not wrapped")
	}
	if _, err := wrapped.Sweep(); err != nil {
		t.Fatal(err)
	}
	_ = refdata.Table1()
	_ = dnn.ZooModels()
}

// TestContextSharesEngineAcrossExperiments checks the session-level cache:
// Fig. 8's per-corner condition sweeps revisit the nominal condition of
// corners the 48-corner sweep already scored, and a re-run of the sweep is
// served entirely from cache.
func TestContextSharesEngineAcrossExperiments(t *testing.T) {
	ctx := NewContextWithModel(testContext(t).Model, testContext(t).Tech)
	if _, err := ctx.Sweep(); err != nil {
		t.Fatal(err)
	}
	st := ctx.Engine().Stats()
	if st.Misses != 48 || st.Entries != 48 {
		t.Fatalf("48-corner sweep stats %v", st)
	}
	if _, err := ctx.Fig8(); err != nil {
		t.Fatal(err)
	}
	st = ctx.Engine().Stats()
	// Each of the three selected corners sweeps 9 VDD + 7 temperature
	// points; the VDD=1.0 V point of each corner is the nominal PVT the
	// 48-corner sweep already scored (the temperature grid skips 27 °C).
	if st.Hits < 3 {
		t.Fatalf("Fig. 8 did not reuse sweep results: %v", st)
	}
	before := st
	if _, err := dse.SweepWith(ctx.Engine(), dse.DefaultGrid(), device.Nominal()); err != nil {
		t.Fatal(err)
	}
	st = ctx.Engine().Stats()
	if st.Misses != before.Misses || st.Hits != before.Hits+48 {
		t.Fatalf("cached re-sweep evaluated corners: before %v, after %v", before, st)
	}
}

// TestEngineFor pins the multi-fidelity engine wiring the adaptive search
// depends on: the session engine is reused for the configured backend,
// other backends get one cached engine each sharing the session store.
func TestEngineFor(t *testing.T) {
	ctx := NewContextWithModel(testContext(t).Model, testContext(t).Tech)
	ctx.CacheDir = t.TempDir()

	behav, err := ctx.EngineFor(engine.BackendBehavioral)
	if err != nil {
		t.Fatal(err)
	}
	if behav != ctx.Engine() {
		t.Fatal("behavioral EngineFor must reuse the session engine")
	}
	if def, err := ctx.EngineFor(""); err != nil || def != behav {
		t.Fatalf("empty name = %v, %v; want the behavioral session engine", def, err)
	}

	golden, err := ctx.EngineFor(engine.BackendGolden)
	if err != nil {
		t.Fatal(err)
	}
	if golden == behav {
		t.Fatal("golden EngineFor returned the behavioral engine")
	}
	if golden.Backend().Name() != engine.BackendGolden {
		t.Fatalf("golden engine runs backend %q", golden.Backend().Name())
	}
	again, err := ctx.EngineFor(engine.BackendGolden)
	if err != nil || again != golden {
		t.Fatalf("EngineFor must cache per backend (got %v, %v)", again, err)
	}
	if _, err := ctx.EngineFor("bogus"); err == nil {
		t.Fatal("unknown backend accepted")
	}

	// Both engines persist into the session store: evaluate one corner on
	// each and check the store holds results under both backend names.
	cfg := mult.Config{Tau0: 0.2e-9, VDAC0: 0.3, VDACFS: 1.0}
	if _, err := behav.EvaluateBatch(engine.Jobs([]mult.Config{cfg}, device.Nominal())); err != nil {
		t.Fatal(err)
	}
	if _, err := golden.EvaluateBatch(engine.Jobs([]mult.Config{cfg}, device.Nominal())); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Close(); err != nil {
		t.Fatal(err)
	}
	st := ctx.Store()
	if st == nil {
		t.Fatal("no store despite CacheDir")
	}
	if got := st.Len(); got != 2 {
		t.Fatalf("store holds %d results, want one per fidelity (2)", got)
	}
}

// TestEngineForConcurrent: goroutines resolving engines at once, as a
// server's jobs do, get one engine per backend over one store, and
// Engine() is the Backend setting's entry of the same table.
func TestEngineForConcurrent(t *testing.T) {
	ctx := NewContextWithModel(testContext(t).Model, testContext(t).Tech)
	ctx.CacheDir = t.TempDir()
	ctx.Backend = engine.BackendGolden
	names := []string{"", engine.BackendBehavioral, engine.BackendGolden}
	got := make([]*engine.Engine, 4*len(names))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, err := ctx.EngineFor(names[i%len(names)])
			if err != nil {
				t.Error(err)
			}
			got[i] = eng
		}()
	}
	wg.Wait()
	behav, err := ctx.EngineFor(engine.BackendBehavioral)
	if err != nil {
		t.Fatal(err)
	}
	for i, eng := range got {
		want := behav
		if names[i%len(names)] == engine.BackendGolden {
			want = ctx.Engine()
		}
		if eng != want {
			t.Fatalf("EngineFor(%q) from goroutine %d returned another engine", names[i%len(names)], i)
		}
	}
	if ctx.Engine() == behav || ctx.Engine().Backend().Name() != engine.BackendGolden {
		t.Fatal("Engine() is not the golden engine the Backend setting names")
	}
	if ctx.Store() == nil {
		t.Fatal("no store despite CacheDir")
	}
	if err := ctx.Close(); err != nil {
		t.Fatal(err)
	}
}
