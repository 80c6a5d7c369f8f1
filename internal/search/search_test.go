package search_test

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/search"
	"optima/internal/store"
)

var (
	modelOnce sync.Once
	model     *core.Model
	modelErr  error
)

func testModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		model, modelErr = core.Calibrate(core.QuickCalibration())
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

// countingBackend is a fidelity stand-in: behavioral metrics under a
// different backend name, with an evaluation counter. The acceptance test
// uses it as the "golden" fidelity so evaluation-count assertions run in
// behavioral time.
type countingBackend struct {
	inner engine.Behavioral
	name  string
	calls atomic.Int64
}

func (c *countingBackend) Name() string { return c.name }

func (c *countingBackend) EvaluateCell(ev engine.Eval, j engine.Job) (engine.Metrics, error) {
	c.calls.Add(1)
	return c.inner.EvaluateCell(ev, j)
}

func TestAxisValidation(t *testing.T) {
	cases := []struct {
		name string
		axis search.Axis
		ok   bool
	}{
		{"empty", search.Axis{Name: "tau0"}, false},
		{"lin", search.LinAxis("tau0", 1, 2, 5), true},
		{"single", search.LinAxis("tau0", 1, 1, 1), true},
		{"single-span", search.LinAxis("tau0", 1, 2, 1), false},
		{"inverted", search.LinAxis("tau0", 2, 1, 5), false},
		{"degenerate-span", search.LinAxis("tau0", 1, 1, 5), false},
		{"log", search.Axis{Name: "tau0", Min: 0.1, Max: 10, Steps: 5, Log: true}, true},
		{"log-nonpositive", search.Axis{Name: "tau0", Min: 0, Max: 10, Steps: 5, Log: true}, false},
		{"values", search.ValuesAxis("tau0", 1, 2, 3), true},
		{"values-unsorted", search.ValuesAxis("tau0", 1, 3, 2), false},
		{"values-duplicate", search.ValuesAxis("tau0", 1, 1, 2), false},
	}
	for _, tc := range cases {
		err := tc.axis.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestAxisPoints(t *testing.T) {
	lin := search.LinAxis("x", 0, 1, 5).Points()
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if !reflect.DeepEqual(lin, want) {
		t.Fatalf("linear points %v, want %v", lin, want)
	}
	log := search.Axis{Name: "x", Min: 1, Max: 16, Steps: 5, Log: true}.Points()
	wantLog := []float64{1, 2, 4, 8, 16}
	for i := range wantLog {
		if diff := log[i] - wantLog[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("log points %v, want %v", log, wantLog)
		}
	}
	if log[0] != 1 || log[4] != 16 {
		t.Fatalf("log endpoints must be exact, got %v", log)
	}
}

func TestAxisSubdividedKeepsOriginals(t *testing.T) {
	orig := []float64{0.16e-9, 0.20e-9, 0.24e-9, 0.28e-9}
	sub := search.ValuesAxis("tau0", orig...).Subdivided(32)
	pts := sub.Points()
	if len(pts) != 4+3*32 {
		t.Fatalf("subdivided into %d points, want %d", len(pts), 4+3*32)
	}
	set := map[float64]bool{}
	prev := pts[0]
	set[prev] = true
	for _, p := range pts[1:] {
		if p <= prev {
			t.Fatalf("subdivided points not strictly increasing at %v", p)
		}
		prev = p
		set[p] = true
	}
	for _, v := range orig {
		if !set[v] {
			t.Fatalf("original point %v lost by subdivision (must stay bitwise identical)", v)
		}
	}
}

func TestFromGridBridge(t *testing.T) {
	g := dse.DefaultGrid()
	sp := search.FromGrid(g)
	cfgs, err := sp.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfgs, g.Configs()) {
		t.Fatal("FromGrid corners differ from dse.Grid corners")
	}
}

func TestSpaceValidationErrors(t *testing.T) {
	// Empty axis: descriptive error, not a silently empty corner list.
	sp := search.FromGrid(dse.Grid{VDAC0s: []float64{0.3}, VDACFSs: []float64{0.9}})
	if _, err := sp.Configs(); err == nil {
		t.Fatal("empty tau0 axis: want error")
	}
	// All combinations physically invalid (VDACFS must exceed VDAC0).
	bad := search.Space{
		Tau0:   search.ValuesAxis("tau0", 0.2e-9),
		VDAC0:  search.ValuesAxis("vdac0", 0.9),
		VDACFS: search.ValuesAxis("vdacfs", 0.5),
	}
	if _, err := bad.Configs(); err == nil {
		t.Fatal("all-invalid space: want error")
	}
}

func TestRunOptionValidation(t *testing.T) {
	m := testModel(t)
	eng := engine.New(engine.Behavioral{Model: m}, 1)
	sp := search.FromGrid(dse.DefaultGrid())
	if _, err := search.Run(context.Background(), search.Options{Space: sp}); err == nil {
		t.Fatal("missing Screen engine: want error")
	}
	if _, err := search.Run(context.Background(), search.Options{Space: sp, Screen: eng, Eta: 1}); err == nil {
		t.Fatal("eta <= 1: want error")
	}
	empty := search.Space{}
	if _, err := search.Run(context.Background(), search.Options{Space: empty, Screen: eng}); err == nil {
		t.Fatal("invalid space: want error")
	}
}

// acceptanceSpace embeds the paper's DefaultGrid exactly (bitwise) inside a
// 1200-corner space by bisecting only the τ0 axis — the densification that
// keeps the grid's Pareto points non-dominated.
func acceptanceSpace(t testing.TB) search.Space {
	sp := search.FromGrid(dse.DefaultGrid())
	sp.Tau0 = sp.Tau0.Subdivided(32)
	n, err := sp.Size()
	if err != nil {
		t.Fatal(err)
	}
	if n < 1000 {
		t.Fatalf("acceptance space has %d corners, want >= 1000", n)
	}
	return sp
}

// TestSearchAcceptance is the issue's acceptance criterion: on a
// ≥1000-corner space embedding DefaultGrid, the search runs at most 25% of
// the exhaustive final-fidelity evaluations, its front contains every
// Pareto point of the embedded 48-corner grid, and a repeat run against the
// same persistent store performs zero backend evaluations.
func TestSearchAcceptance(t *testing.T) {
	m := testModel(t)
	sp := acceptanceSpace(t)
	spaceSize, err := sp.Size()
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "cache")
	run := func() (*search.Result, int64) {
		st, err := store.Open(dir, store.Options{Fingerprint: "search-acceptance"})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		screen := engine.New(engine.Behavioral{Model: m}, 8).WithStore(st)
		golden := &countingBackend{inner: engine.Behavioral{Model: m}, name: "golden"}
		final := engine.New(golden, 8).WithStore(st)
		res, err := search.Run(context.Background(), search.Options{
			Space:  sp,
			Screen: screen,
			Final:  final,
			Rungs:  2,
			Eta:    2,
			Seed:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, golden.calls.Load()
	}

	res, goldenCalls := run()

	// ≤ 25% of the exhaustive final-fidelity evaluations.
	if limit := uint64(spaceSize) / 4; res.Trace.FinalEvaluations() > limit {
		t.Fatalf("final-fidelity evaluations %d exceed 25%% of the %d-corner space (%d)",
			res.Trace.FinalEvaluations(), spaceSize, limit)
	}
	if uint64(goldenCalls) != res.Trace.FinalEvaluations() {
		t.Fatalf("trace reports %d final evaluations, backend counted %d",
			res.Trace.FinalEvaluations(), goldenCalls)
	}

	// The final front contains every Pareto point of the embedded grid.
	gridEng := engine.New(engine.Behavioral{Model: m}, 8)
	gridMets, err := dse.SweepWith(gridEng, dse.DefaultGrid(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	inFront := map[mult.Config]bool{}
	for _, f := range res.Front {
		inFront[f.Config] = true
	}
	for _, p := range dse.ParetoFront(gridMets) {
		if !inFront[p.Config] {
			t.Errorf("grid Pareto point %v missing from the adaptive front", p.Config)
		}
	}

	// A repeat run against the persisted store evaluates nothing.
	res2, goldenCalls2 := run()
	if goldenCalls2 != 0 {
		t.Fatalf("repeat run ran %d final-fidelity backend evaluations, want 0", goldenCalls2)
	}
	if n := res2.Trace.ScreenEvaluations(); n != 0 {
		t.Fatalf("repeat run ran %d screen backend evaluations, want 0", n)
	}
	if res2.Trace.FinalEvaluations() != 0 {
		t.Fatalf("repeat run trace reports %d final evaluations, want 0", res2.Trace.FinalEvaluations())
	}
	if !reflect.DeepEqual(res.Front, res2.Front) || !reflect.DeepEqual(res.Finalists, res2.Finalists) {
		t.Fatal("store-served repeat run changed the result")
	}
}

// TestSearchWorkerInvariance pins the determinism contract: identical
// Result — fronts, finalists, and per-rung trace — at any worker count.
func TestSearchWorkerInvariance(t *testing.T) {
	m := testModel(t)
	sp := search.FromGrid(dse.DefaultGrid())
	sp.Tau0 = sp.Tau0.Subdivided(4) // 192 corners

	run := func(workers int) *search.Result {
		screen := engine.New(engine.Behavioral{Model: m}, workers)
		final := engine.New(&countingBackend{inner: engine.Behavioral{Model: m}, name: "golden"}, workers)
		res, err := search.Run(context.Background(), search.Options{
			Space:  sp,
			Screen: screen,
			Final:  final,
			Rungs:  3,
			Eta:    2,
			Refine: true,
			Seed:   42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	r1 := run(1)
	r8 := run(8)
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("search result differs between -workers 1 and -workers 8")
	}
}

func TestSearchBudgetSamplesSpace(t *testing.T) {
	m := testModel(t)
	sp := search.FromGrid(dse.DefaultGrid())
	screen := engine.New(engine.Behavioral{Model: m}, 4)
	res, err := search.Run(context.Background(), search.Options{
		Space:  sp,
		Screen: screen,
		Budget: 24,
		Rungs:  2,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Sampled != 24 {
		t.Fatalf("sampled %d corners, want budget 24", res.Trace.Sampled)
	}
	if res.Trace.SpaceSize != 48 {
		t.Fatalf("space size %d, want 48", res.Trace.SpaceSize)
	}
	if n := res.Trace.ScreenEvaluations(); n != 24 {
		t.Fatalf("screen evaluated %d corners, want 24 (later rungs are cache hits)", n)
	}
	if len(res.Finalists) != 6 { // ceil(24/2^2)
		t.Fatalf("finalists %d, want 6", len(res.Finalists))
	}
	if len(res.Front) == 0 || len(res.Front) > len(res.Finalists) {
		t.Fatalf("front size %d out of range (finalists %d)", len(res.Front), len(res.Finalists))
	}
}

func TestSearchRefineAddsCandidates(t *testing.T) {
	m := testModel(t)
	sp := search.FromGrid(dse.DefaultGrid())
	screen := engine.New(engine.Behavioral{Model: m}, 4)
	res, err := search.Run(context.Background(), search.Options{
		Space:  sp,
		Screen: screen,
		Rungs:  3,
		Refine: true,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rung 1's pool is the 24 survivors plus refined midpoint corners.
	if len(res.Trace.Rungs) != 3 {
		t.Fatalf("trace has %d rungs, want 3", len(res.Trace.Rungs))
	}
	r1 := res.Trace.Rungs[1]
	if r1.Candidates <= r1.Promoted {
		t.Fatalf("refinement added no candidates: rung 1 has %d candidates", r1.Candidates)
	}
	if r1.Evaluated == 0 {
		t.Fatal("refined corners should be fresh evaluations")
	}
	if r1.CacheHits == 0 {
		t.Fatal("survivors resubmitted in rung 1 should be cache hits")
	}
}

// TestSearchFrontMatchesExhaustiveOnSmallSpace cross-checks the search
// against ground truth where exhaustive evaluation is cheap: on the plain
// 48-corner grid with survivors ≥ the true front, the final front must
// equal dse.ParetoFront of the exhaustive sweep.
func TestSearchFrontMatchesExhaustiveOnSmallSpace(t *testing.T) {
	m := testModel(t)
	eng := engine.New(engine.Behavioral{Model: m}, 4)
	mets, err := dse.SweepWith(eng, dse.DefaultGrid(), device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	want := dse.ParetoFront(mets)

	res, err := search.Run(context.Background(), search.Options{
		Space:  search.FromGrid(dse.DefaultGrid()),
		Screen: engine.New(engine.Behavioral{Model: m}, 4),
		Rungs:  2,
		Eta:    1.5,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Front, want) {
		t.Fatalf("adaptive front (%d points) differs from exhaustive front (%d points)",
			len(res.Front), len(want))
	}
}

// pvtBackend synthesizes condition-dependent metrics engineered so the
// nominal winner is NOT the robust winner: at the nominal condition ϵ_mul
// shrinks with τ0 (the smallest τ0 wins), but the excursion penalty grows
// as 1/τ0, so under a PVT excursion the small-τ0 corners collapse and a
// larger τ0 wins the worst-case ranking. Energy is flat, which collapses
// the Pareto front to the single minimum-ϵ corner — making "the winner"
// well defined in both modes.
type pvtBackend struct {
	name  string
	calls atomic.Int64
}

func (b *pvtBackend) Name() string { return b.name }

func (b *pvtBackend) EvaluateCell(_ engine.Eval, j engine.Job) (engine.Metrics, error) {
	cfg, cond := j.Config, j.Cond
	b.calls.Add(1)
	tau := cfg.Tau0 * 1e9
	severity := math.Abs(cond.VDD-device.NominalVDD)*10 + math.Abs(cond.TempC-device.NominalTempC)/33
	return engine.Metrics{
		Config: cfg,
		Cond:   cond,
		EpsMul: tau + severity/tau,
		EMul:   50e-15,
	}, nil
}

// robustSpace is a seeded one-axis space over τ0 (0.1–0.9 ns).
func robustSpace() search.Space {
	return search.Space{
		Tau0:   search.LinAxis("tau0", 0.1e-9, 0.9e-9, 9),
		VDAC0:  search.ValuesAxis("vdac0", 0.3),
		VDACFS: search.ValuesAxis("vdacfs", 1.0),
	}
}

func robustConditions(t testing.TB) engine.ConditionSet {
	t.Helper()
	conds, err := engine.ParseConditionSet("TT@1V@27C,SS@0.9V@60C,FF@1.1V@0C")
	if err != nil {
		t.Fatal(err)
	}
	return conds
}

// TestRobustSearchAcceptance is the issue's robust-mode acceptance test: on
// a seeded space, the nominal search and the robust search crown different
// winners; the robust result is byte-identical at any worker count; and a
// repeat robust run against a shared store performs zero backend
// evaluations.
func TestRobustSearchAcceptance(t *testing.T) {
	sp := robustSpace()
	conds := robustConditions(t)
	dir := filepath.Join(t.TempDir(), "cache")

	run := func(workers int, robust bool) (*search.Result, int64, int64) {
		st, err := store.Open(dir, store.Options{Fingerprint: "robust-acceptance"})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		screenBack := &pvtBackend{name: "screen"}
		finalBack := &pvtBackend{name: "golden"}
		opts := search.Options{
			Space:  sp,
			Screen: engine.New(screenBack, workers).WithStore(st),
			Final:  engine.New(finalBack, workers).WithStore(st),
			Rungs:  2,
			Eta:    2,
			Seed:   1,
		}
		if robust {
			opts.Conditions = conds
		}
		res, err := search.Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, screenBack.calls.Load(), finalBack.calls.Load()
	}

	nominal, _, _ := run(8, false)
	robust, _, _ := run(8, true)

	if len(nominal.Front) != 1 || len(robust.Front) != 1 {
		t.Fatalf("fronts not singular: nominal %d, robust %d (flat energy must collapse the front)",
			len(nominal.Front), len(robust.Front))
	}
	nomWin, robWin := nominal.Front[0].Config, robust.Front[0].Config
	if nomWin == robWin {
		t.Fatalf("nominal winner %v equals robust winner — the seeded space must separate them", nomWin)
	}
	if nomWin.Tau0 >= robWin.Tau0 {
		t.Fatalf("nominal winner τ0 %g should be smaller than robust winner τ0 %g", nomWin.Tau0, robWin.Tau0)
	}

	// The robust front entry is a worst-case composite: its condition is the
	// arg-worst excursion (not nominal) and its ϵ is the worst case.
	if robust.Front[0].Cond == device.Nominal() {
		t.Fatal("robust front entry carries the nominal condition, want the arg-worst excursion")
	}
	if robust.Robust == nil || len(robust.Robust) != len(robust.Finalists) {
		t.Fatalf("robust summaries missing: %d for %d finalists", len(robust.Robust), len(robust.Finalists))
	}
	for i, r := range robust.Robust {
		if len(r.PerCond) != conds.Len() {
			t.Fatalf("finalist %d has %d per-condition metrics, want %d", i, len(r.PerCond), conds.Len())
		}
		if r.Config != robust.Finalists[i].Config {
			t.Fatalf("finalist %d summary out of order", i)
		}
		if robust.Finalists[i].EpsMul != r.WorstEps {
			t.Fatalf("finalist %d composite ϵ %g != worst case %g", i, robust.Finalists[i].EpsMul, r.WorstEps)
		}
	}
	if nominal.Robust != nil {
		t.Fatal("nominal search populated robust summaries")
	}
	if robust.Trace.Conditions != conds.String() {
		t.Fatalf("trace conditions %q, want %q", robust.Trace.Conditions, conds.String())
	}

	// Worker invariance in robust mode: the outputs — front, finalists,
	// summaries — are byte-identical at any worker count. (The trace's
	// cache accounting legitimately shifts with store warmth between runs,
	// so it is not part of the comparison.)
	sameOutputs := func(a, b *search.Result, what string) {
		t.Helper()
		if !reflect.DeepEqual(a.Front, b.Front) ||
			!reflect.DeepEqual(a.Finalists, b.Finalists) ||
			!reflect.DeepEqual(a.Robust, b.Robust) {
			t.Fatalf("%s changed the robust result", what)
		}
	}
	again, _, _ := run(1, true)
	sameOutputs(robust, again, "-workers 1 vs -workers 8")

	// Repeat run against the shared store: zero backend evaluations at
	// either fidelity, identical result.
	rerun, screenCalls, finalCalls := run(8, true)
	if screenCalls != 0 || finalCalls != 0 {
		t.Fatalf("repeat robust run hit the backends: %d screen + %d final calls, want 0",
			screenCalls, finalCalls)
	}
	if n := rerun.Trace.ScreenEvaluations() + rerun.Trace.FinalEvaluations(); n != 0 {
		t.Fatalf("repeat robust run trace reports %d evaluations, want 0", n)
	}
	sameOutputs(robust, rerun, "store-served repeat run")
}

// TestRobustSearchWorkerInvarianceFullResult pins the stronger contract on
// fresh engines (no store): the ENTIRE robust Result, trace included, is
// identical at any worker count.
func TestRobustSearchWorkerInvarianceFullResult(t *testing.T) {
	conds := robustConditions(t)
	run := func(workers int) *search.Result {
		res, err := search.Run(context.Background(), search.Options{
			Space:      robustSpace(),
			Screen:     engine.New(&pvtBackend{name: "screen"}, workers),
			Final:      engine.New(&pvtBackend{name: "golden"}, workers),
			Conditions: conds,
			Rungs:      2,
			Eta:        2,
			Refine:     true,
			Seed:       42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Fatal("robust search result differs between -workers 1 and -workers 8")
	}
}

// TestRobustSearchPromotesAllConditions: the final-fidelity pass evaluates
// every finalist at every condition of the set, and the per-rung trace
// records the condition dimension.
func TestRobustSearchPromotesAllConditions(t *testing.T) {
	conds := robustConditions(t)
	finalBack := &pvtBackend{name: "golden"}
	res, err := search.Run(context.Background(), search.Options{
		Space:      robustSpace(),
		Screen:     engine.New(&pvtBackend{name: "screen"}, 4),
		Final:      engine.New(finalBack, 4),
		Conditions: conds,
		Rungs:      2,
		Eta:        2,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantFinal := int64(len(res.Finalists) * conds.Len())
	if got := finalBack.calls.Load(); got != wantFinal {
		t.Fatalf("final fidelity ran %d evaluations, want %d (finalists × conditions)", got, wantFinal)
	}
	for _, r := range res.Trace.Rungs {
		if r.Conditions != conds.Len() {
			t.Fatalf("rung %d records %d conditions, want %d", r.Rung, r.Conditions, conds.Len())
		}
	}
}
