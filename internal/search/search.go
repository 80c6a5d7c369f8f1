package search

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/obs"
)

// Options configures a search run. Screen is required; everything else has
// a sensible default.
type Options struct {
	// Space is the explored design space.
	Space Space
	// Conditions switches the search to the cross-condition evaluation
	// plane: every rung screens its candidates at EVERY condition of the set
	// (one engine matrix batch per rung) and, when the set has more than one
	// condition, survivors are selected by Pareto rank on the worst-case
	// (ϵ_mul, E_mul) over the set — the robust mode, ranking designs by
	// their worst PVT excursion instead of their nominal showing. Finalists
	// are promoted to the Final engine at every condition. Empty means the
	// single nominal condition (engine.NominalConditions).
	Conditions engine.ConditionSet
	// Screen is the cheap-fidelity engine every rung's candidates are
	// submitted to (behavioral in the CLI wiring).
	Screen *engine.Engine
	// Final is the optional high-fidelity engine (golden in the CLI wiring):
	// when set, the finalists surviving the last rung are re-evaluated on it
	// and the returned front is at its fidelity. When nil, the front is at
	// screen fidelity.
	Final *engine.Engine
	// Budget caps the rung-0 candidate count; a space larger than the
	// budget is sampled deterministically (Seed). <= 0 means the full space.
	Budget int
	// Rungs is the number of screening rounds (default DefaultRungs). Each
	// rung evaluates its pool through the screen engine and keeps
	// ceil(n0/Eta^(rung+1)) survivors.
	Rungs int
	// Eta is the halving ratio between rungs (default DefaultEta; must
	// exceed 1).
	Eta float64
	// Finalists caps how many survivors of the last rung are promoted to
	// the final fidelity. <= 0 keeps the last rung's natural survivor count.
	Finalists int
	// Refine, when true, inserts per-axis midpoint candidates around each
	// rung's survivors (linear or geometric per the axis), letting the
	// search sharpen resolution beyond the initial lattice. New candidates
	// per rung are capped at the survivor count (seeded sampling).
	Refine bool
	// Seed drives candidate sampling and refinement capping (any value is
	// fine, including 0).
	Seed uint64
	// OnRung, when non-nil, is called after each rung completes — screening
	// rungs in order, then the fidelity-promotion pass — with that rung's
	// stats. It is the live-progress hook the optima-server streams as
	// job events. Called synchronously from Run; keep it fast.
	OnRung func(RungStats)
	// OnProgress, when non-nil, receives per-cell progress within a rung:
	// rung is the rung index (the promotion pass reuses the next index, like
	// RungStats.Rung), and done/total count resolved (config × condition)
	// cells of the rung's batch. Calls are serialized per rung but arrive
	// from engine worker goroutines; keep the callback fast.
	OnProgress func(rung, done, total int)
	// Recorder, when non-nil, records the run's telemetry: a search span
	// with one child span per rung (and the promotion pass), each parenting
	// its engine batch — give Screen and Final the same recorder
	// (engine.WithRecorder). Timing never feeds into the Result — it is
	// byte-identical with or without a recorder, at any worker count.
	Recorder *obs.Recorder
	// Span parents the search span (0 = root) — the server's job span.
	Span obs.SpanID
}

// Validate checks the options for values a caller — the CLI flag layer or
// the server's JSON decoding — may produce from untrusted input. Zero
// values mean defaults (full space, DefaultRungs, DefaultEta, the last
// rung's natural survivor count); negative values and sub-unity halving
// ratios are rejected with descriptive errors rather than silently clamped
// into a run the caller did not ask for. Run validates implicitly.
func (o Options) Validate() error {
	if o.Screen == nil {
		return fmt.Errorf("search: Options.Screen engine is required")
	}
	if o.Budget < 0 {
		return fmt.Errorf("search: budget %d must be >= 0 (0 means the full space)", o.Budget)
	}
	if o.Rungs < 0 {
		return fmt.Errorf("search: rungs %d must be >= 0 (0 means the default %d)", o.Rungs, DefaultRungs)
	}
	if o.Finalists < 0 {
		return fmt.Errorf("search: finalists %d must be >= 0 (0 means the last rung's survivor count)", o.Finalists)
	}
	if o.Eta != 0 {
		if math.IsNaN(o.Eta) || math.IsInf(o.Eta, 0) {
			return fmt.Errorf("search: non-finite halving ratio %v", o.Eta)
		}
		if o.Eta <= 1 {
			return fmt.Errorf("search: halving ratio eta %v must exceed 1 (0 means the default %v)", o.Eta, DefaultEta)
		}
	}
	return nil
}

// Defaults for Options.
const (
	DefaultRungs = 3
	DefaultEta   = 2.0
)

// RungStats records one rung's evaluation accounting — the
// exhaustive-vs-adaptive evidence the Trace exists for.
type RungStats struct {
	// Rung indexes screening rungs from 0; the fidelity-promotion pass (if
	// any) is the last entry and reuses the next index.
	Rung int
	// Fidelity is the backend name the rung's engine evaluated on.
	Fidelity string
	// Candidates is the number of corners submitted this rung. In robust
	// mode each candidate is evaluated at every condition of the set, so the
	// rung's job count is Candidates × Conditions.
	Candidates int
	// Conditions is the size of the condition set the rung evaluated across
	// (1 for a nominal search).
	Conditions int
	// Evaluated counts candidates that ran the backend (engine cache
	// misses attributed to this rung).
	Evaluated uint64
	// CacheHits counts candidates served by the engine's in-memory tier.
	CacheHits uint64
	// StoreHits counts candidates served by the persistent store tier.
	StoreHits uint64
	// Promoted is how many survivors this rung passed on.
	Promoted int
	// Final marks the fidelity-promotion pass (the Final engine), so the
	// trace distinguishes it even when screen and final backends share a
	// name (as test doubles do).
	Final bool
}

// Trace is the per-rung evaluation record of a search run.
type Trace struct {
	// SpaceSize is the valid-corner count of the full space — what an
	// exhaustive sweep would evaluate (per condition).
	SpaceSize int
	// Conditions is the canonical spec of the condition set the search
	// evaluated across (engine.ConditionSet.String).
	Conditions string
	// Sampled is the rung-0 candidate count after the budget cap.
	Sampled int
	// Rungs holds the per-rung stats, screening rungs first, the
	// fidelity-promotion pass (when a Final engine is set) last.
	Rungs []RungStats
}

// ScreenEvaluations sums backend evaluations across screening rungs.
func (t Trace) ScreenEvaluations() uint64 {
	var n uint64
	for _, r := range t.Rungs {
		if !r.Final {
			n += r.Evaluated
		}
	}
	return n
}

// FinalEvaluations returns the backend evaluations of the promotion pass.
func (t Trace) FinalEvaluations() uint64 {
	var n uint64
	for _, r := range t.Rungs {
		if r.Final {
			n += r.Evaluated
		}
	}
	return n
}

// Result is a search outcome.
type Result struct {
	// Front is the Pareto front over the finalists in (EpsMul, EMul), at
	// the highest fidelity evaluated, sorted by energy (dse.ParetoFront).
	// In robust mode the entries are worst-case composites
	// (dse.RobustMetrics.Score): EpsMul and EMul carry the worst-case
	// values over the condition set and Cond the arg-worst-ϵ condition.
	Front []dse.Metrics
	// Finalists holds every promoted corner's metrics at the final
	// fidelity, in deterministic candidate order (Front is a subset). In
	// robust mode these are the worst-case composites.
	Finalists []dse.Metrics
	// Robust holds the finalists' full cross-condition summaries (per-
	// condition metrics, arg-worst conditions, spreads) when the search ran
	// in robust mode — same order as Finalists. Nil for a nominal search.
	Robust []dse.RobustMetrics
	// Trace is the per-rung accounting.
	Trace Trace
}

// Run explores the space. See the package comment for the algorithm; the
// result is deterministic for fixed Options regardless of the engines'
// worker counts or an attached store's prior contents. Cancelling ctx
// aborts the run between cells: evaluations already on a backend complete
// (and persist, keeping the store consistent), unstarted ones are
// abandoned, and Run returns the context's error — a rerun of the same
// options resumes from the warm cache tiers.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	rungs := opts.Rungs
	if rungs == 0 {
		rungs = DefaultRungs
	}
	eta := opts.Eta
	if eta == 0 {
		eta = DefaultEta
	}
	conds := opts.Conditions
	if conds.Len() == 0 {
		conds = engine.NominalConditions()
	}
	// Robust mode: more than one condition — rank by worst-case excursion.
	robust := conds.Len() > 1

	lat, err := opts.Space.lattice()
	if err != nil {
		return nil, err
	}
	pool := sample(lat.size(), opts.Budget, opts.Seed, lat.at)
	n0 := len(pool)
	trace := Trace{SpaceSize: lat.size(), Conditions: conds.String(), Sampled: n0}

	rec := opts.Recorder
	var searchArg string
	if rec != nil {
		searchArg = fmt.Sprintf("%d candidates, %d conditions", n0, conds.Len())
	}
	searchSpan := rec.StartSpan(opts.Span, obs.CatSearch, "adaptive-search", searchArg)
	defer searchSpan.End()

	// seen tracks every corner that has entered any rung's pool, so
	// refinement never proposes a duplicate.
	seen := make(map[mult.Config]bool, 2*n0)
	for _, c := range pool {
		seen[c] = true
	}
	var ref *refiner
	if opts.Refine {
		ref = newRefiner(opts.Space)
	}

	var survivors []mult.Config
	var survivorMets []dse.Metrics
	var survivorRobust []dse.RobustMetrics
	for r := 0; r < rungs; r++ {
		// The engine surfaces a cancellation that lands mid-batch; this
		// check catches one landing between rungs, where a fully cached
		// batch would otherwise let the run continue.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("search: %w", err)
		}
		var rungArg string
		if rec != nil {
			rungArg = fmt.Sprintf("%d candidates", len(pool))
		}
		rungSpan := rec.StartSpan(searchSpan.ID(), obs.CatRung, fmt.Sprintf("rung-%d", r), rungArg)
		mets, rms, stats, err := evaluateRung(ctx, opts.Screen, pool, conds, robust, r, opts.OnProgress, rungSpan.ID())
		rungSpan.End()
		if err != nil {
			return nil, err
		}
		// Successive-halving schedule: survivors shrink by eta per rung
		// relative to the initial pool, independent of refinement growth.
		keep := int(math.Ceil(float64(n0) / math.Pow(eta, float64(r+1))))
		if keep < 1 {
			keep = 1
		}
		if keep > len(pool) {
			keep = len(pool)
		}
		if r == rungs-1 && opts.Finalists > 0 && keep > opts.Finalists {
			keep = opts.Finalists
		}
		order := paretoOrder(mets)
		pick := append([]int(nil), order[:keep]...)
		sort.Ints(pick) // survivors stay in pool (grid) order
		survivors = make([]mult.Config, keep)
		survivorMets = make([]dse.Metrics, keep)
		if robust {
			survivorRobust = make([]dse.RobustMetrics, keep)
		}
		for i, idx := range pick {
			survivors[i] = pool[idx]
			survivorMets[i] = mets[idx]
			if robust {
				survivorRobust[i] = rms[idx]
			}
		}

		stats.Rung = r
		stats.Promoted = keep
		trace.Rungs = append(trace.Rungs, stats)
		if opts.OnRung != nil {
			opts.OnRung(stats)
		}

		if r == rungs-1 {
			break
		}
		pool = survivors
		if ref != nil {
			// Cap refinement growth at the survivor count so pools shrink
			// geometrically; the cap samples deterministically per rung, and
			// only the kept proposals commit into the refiner — a dropped
			// proposal stays eligible for later rungs.
			props := sampleSubset(ref.Around(survivors, seen), keep, opts.Seed+uint64(r)+1)
			pool = append(append([]mult.Config(nil), survivors...), ref.Commit(props, seen)...)
		}
	}

	res := &Result{Trace: trace}
	if opts.Final != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("search: %w", err)
		}
		// Promote the finalists to the final fidelity at EVERY condition of
		// the set, so the robust ranking at the high fidelity sees the same
		// excursions the screen ranked on.
		var promoteArg string
		if rec != nil {
			promoteArg = fmt.Sprintf("%d finalists", len(survivors))
		}
		promoteSpan := rec.StartSpan(searchSpan.ID(), obs.CatRung, "promote", promoteArg)
		fmets, frobust, stats, err := evaluateRung(ctx, opts.Final, survivors, conds, robust, rungs, opts.OnProgress, promoteSpan.ID())
		promoteSpan.End()
		if err != nil {
			return nil, err
		}
		stats.Rung = rungs
		stats.Final = true
		stats.Promoted = len(fmets)
		res.Trace.Rungs = append(res.Trace.Rungs, stats)
		if opts.OnRung != nil {
			opts.OnRung(stats)
		}
		res.Finalists = fmets
		res.Robust = frobust
	} else {
		res.Finalists = survivorMets
		res.Robust = survivorRobust
	}
	res.Front = dse.ParetoFront(res.Finalists)
	return res, nil
}

// evaluateRung submits one rung's pool × conditions as a single engine
// matrix batch and attributes the engine's accounting delta to the rung.
// The returned metrics are the rung's selection scores, in pool order: the
// per-config metrics at the single condition of a nominal search, or the
// worst-case composites (dse.RobustMetrics.Score) in robust mode — in which
// case the full cross-condition summaries are returned alongside.
func evaluateRung(ctx context.Context, eng *engine.Engine, pool []mult.Config, conds engine.ConditionSet, robust bool, rung int, onProgress func(rung, done, total int), parent obs.SpanID) ([]dse.Metrics, []dse.RobustMetrics, RungStats, error) {
	bo := engine.BatchOptions{Ctx: ctx, ParentSpan: parent}
	if onProgress != nil {
		bo.OnProgress = func(done, total int) { onProgress(rung, done, total) }
	}
	pre := eng.Stats()
	mat, err := eng.EvaluateMatrixOpts(pool, conds, bo)
	if err != nil {
		return nil, nil, RungStats{}, fmt.Errorf("search: %w", err)
	}
	d := eng.Stats().Sub(pre)
	stats := RungStats{
		Fidelity:   eng.Backend().Name(),
		Candidates: len(pool),
		Conditions: conds.Len(),
		Evaluated:  d.Misses,
		CacheHits:  d.Hits,
		StoreHits:  d.DiskHits,
	}
	if !robust {
		return mat.Col(0), nil, stats, nil
	}
	rms := dse.RobustFromMatrix(mat)
	scores := make([]dse.Metrics, len(rms))
	for i, r := range rms {
		scores[i] = r.Score()
	}
	return scores, rms, stats, nil
}

// paretoOrder returns the candidate indices ordered best-first: ascending
// non-dominated rank in (EpsMul, EMul), then descending crowding distance
// within a rank, then ascending index. The order is a deterministic
// function of the metrics alone — the selection half of the search's
// worker-invariance contract.
func paretoOrder(mets []dse.Metrics) []int {
	rank := dse.ParetoRanks(mets)
	objs := make([][2]float64, len(mets))
	for i, m := range mets {
		objs[i] = [2]float64{m.EpsMul, m.EMul}
	}
	crowd := crowdingDistances(objs, rank)
	order := indexes(len(mets))
	slices.SortStableFunc(order, func(a, b int) int {
		if rank[a] != rank[b] {
			return cmp.Compare(rank[a], rank[b])
		}
		return byValue(crowd[b], crowd[a], a, b)
	})
	return order
}

// crowdingDistances computes the per-candidate crowding distance within its
// rank, over the projected (EpsMul, EMul) objectives: boundary candidates
// (per objective) get +Inf, interior ones the sum of normalized neighbor
// gaps — NSGA-II's diversity pressure, which keeps the survivor set spread
// along the front instead of clustered.
func crowdingDistances(objs [][2]float64, rank []int) []float64 {
	n := len(objs)
	crowd := make([]float64, n)
	byRank := indexes(n)
	slices.SortStableFunc(byRank, func(a, b int) int { return cmp.Compare(rank[a], rank[b]) })
	idx := make([]int, 0, n)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && rank[byRank[hi]] == rank[byRank[lo]] {
			hi++
		}
		members := byRank[lo:hi]
		lo = hi
		if len(members) <= 2 {
			for _, i := range members {
				crowd[i] = math.Inf(1)
			}
			continue
		}
		for k := range 2 {
			idx = append(idx[:0], members...)
			slices.SortStableFunc(idx, func(a, b int) int { return byValue(objs[a][k], objs[b][k], a, b) })
			first, last := idx[0], idx[len(idx)-1]
			crowd[first], crowd[last] = math.Inf(1), math.Inf(1)
			if span := objs[last][k] - objs[first][k]; span > 0 {
				for j := 1; j < len(idx)-1; j++ {
					crowd[idx[j]] += (objs[idx[j+1]][k] - objs[idx[j-1]][k]) / span
				}
			}
		}
	}
	return crowd
}

// byValue orders a before b when x < y, and by index when x == y; with a NaN
// it answers 1 both ways, so neither is less (SortStableFunc tests for < 0).
func byValue(x, y float64, a, b int) int {
	if x != y {
		if x < y {
			return -1
		}
		return 1
	}
	return cmp.Compare(a, b)
}

// indexes returns 0, 1, …, n-1.
func indexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
