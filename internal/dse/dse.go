// Package dse implements the paper's design-space exploration (Section V):
// sweeping multiplier configurations over (τ0, V_DAC,0, V_DAC,FS), scoring
// each corner by average multiplication error and energy, selecting the
// fom / power / variation corners (Table I), extracting Pareto-optimal
// sets, and running the PVT robustness analyses of Fig. 8.
//
// The package is the exploration layer: it decides which corners and
// conditions to score and how to rank them. The scoring itself — worker
// pool, result cache, behavioral-vs-golden backend choice — lives in
// internal/engine, which every sweep here routes through.
package dse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
)

// Grid spans the explored configuration space. The paper's 48-corner space
// is DefaultGrid.
type Grid struct {
	Tau0s   []float64
	VDAC0s  []float64
	VDACFSs []float64
}

// DefaultGrid returns the paper's 48 design corners:
// τ0 ∈ {0.16, 0.20, 0.24, 0.28} ns × V_DAC,0 ∈ {0.3, 0.4, 0.5} V ×
// V_DAC,FS ∈ {0.7, 0.8, 0.9, 1.0} V.
func DefaultGrid() Grid {
	return Grid{
		Tau0s:   []float64{0.16e-9, 0.20e-9, 0.24e-9, 0.28e-9},
		VDAC0s:  []float64{0.3, 0.4, 0.5},
		VDACFSs: []float64{0.7, 0.8, 0.9, 1.0},
	}
}

// Validate rejects grids that cannot produce a corner: an empty axis slice
// (the classic silent-empty-sweep bug) or a grid whose combinations are all
// physically invalid. Sweep and SweepWith call it, so a misbuilt grid is a
// descriptive error instead of an empty result.
func (g Grid) Validate() error {
	for _, axis := range []struct {
		name string
		vals []float64
	}{{"tau0", g.Tau0s}, {"vdac0", g.VDAC0s}, {"vdacfs", g.VDACFSs}} {
		if len(axis.vals) == 0 {
			return fmt.Errorf("dse: grid axis %s is empty", axis.name)
		}
	}
	if len(g.Configs()) == 0 {
		// Every combination failed mult.Config validation; the first
		// combination's error names the actual violation.
		first := mult.Config{Tau0: g.Tau0s[0], VDAC0: g.VDAC0s[0], VDACFS: g.VDACFSs[0]}
		return fmt.Errorf("dse: grid has no valid corner: %w", first.Validate())
	}
	return nil
}

// Configs expands the grid into the corner list (row-major:
// τ0 outermost, V_DAC,FS innermost), skipping invalid combinations.
func (g Grid) Configs() []mult.Config {
	var out []mult.Config
	for _, tau := range g.Tau0s {
		for _, v0 := range g.VDAC0s {
			for _, fs := range g.VDACFSs {
				cfg := mult.Config{Tau0: tau, VDAC0: v0, VDACFS: fs}
				if cfg.Validate() == nil {
					out = append(out, cfg)
				}
			}
		}
	}
	return out
}

// Metrics is the per-corner score produced by the evaluation engine.
type Metrics = engine.Metrics

// Sweep evaluates every corner of the grid at the nominal condition on a
// fresh behavioral engine with the given worker count and returns the
// metrics in grid order. Callers that run several sweeps (figures, tables,
// condition excursions) should build one engine and use SweepWith so
// repeated corners hit the cache.
func Sweep(model *core.Model, grid Grid, workers int) ([]Metrics, error) {
	return SweepWith(engine.New(engine.Behavioral{Model: model}, workers), grid, device.Nominal())
}

// SweepWith evaluates every corner of the grid at cond through the given
// engine's batched submission path: one batch claims the whole grid, so
// per-job scheduling is amortized and — when the engine has a persistent
// store attached — freshly computed corners persist in groups. Results come
// back in grid order regardless of the engine's worker count.
func SweepWith(eng *engine.Engine, grid Grid, cond device.PVT) ([]Metrics, error) {
	cfgs := grid.Configs()
	if len(cfgs) == 0 {
		// Validate expands the grid again, but only on this error path; the
		// sweep itself pays one expansion.
		return nil, grid.Validate()
	}
	mets, err := eng.EvaluateBatch(engine.Jobs(cfgs, cond))
	if err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	return mets, nil
}

// Selection holds the three corners the paper's Table I reports.
type Selection struct {
	FOM       Metrics // maximizes Eq. 9
	Power     Metrics // minimum energy per multiplication
	Variation Metrics // smallest σ at maximum discharge (robustness pick)
}

// SigmaTieTolerance treats σ values within this relative band as tied when
// selecting the variation corner; ties resolve to the corner with the best
// large-operand accuracy ("least impacted by process variation" evaluated
// on large results, the paper's framing).
const SigmaTieTolerance = 0.01

// Select applies the paper's three selection rules to a sweep result.
func Select(metrics []Metrics) (Selection, error) {
	if len(metrics) == 0 {
		return Selection{}, fmt.Errorf("dse: empty sweep")
	}
	sel := Selection{FOM: metrics[0], Power: metrics[0], Variation: metrics[0]}
	for _, m := range metrics[1:] {
		if m.FOM() > sel.FOM.FOM() {
			sel.FOM = m
		}
		if m.EMul < sel.Power.EMul {
			sel.Power = m
		}
	}
	// Variation: min σ at max discharge with tolerance, tie-break by
	// large-operand error, then energy.
	minSigma := math.Inf(1)
	for _, m := range metrics {
		if m.SigmaMaxLSB < minSigma {
			minSigma = m.SigmaMaxLSB
		}
	}
	best := Metrics{EpsLarge: math.Inf(1), EMul: math.Inf(1)}
	for _, m := range metrics {
		if m.SigmaMaxLSB > minSigma*(1+SigmaTieTolerance) {
			continue
		}
		if m.EpsLarge < best.EpsLarge ||
			(m.EpsLarge == best.EpsLarge && m.EMul < best.EMul) {
			best = m
		}
	}
	sel.Variation = best
	return sel, nil
}

// ParetoFront returns the corners not dominated in (EpsMul, EMul), rank 0
// of ParetoRanks, sorted by energy.
func ParetoFront(metrics []Metrics) []Metrics {
	var front []Metrics
	for i, rank := range ParetoRanks(metrics) {
		if rank == 0 {
			front = append(front, metrics[i])
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].EMul < front[j].EMul })
	return front
}

// objectives is one corner's (EpsMul, EMul), the pair Pareto dominance
// compares: ParetoRanks projects them out of the Metrics once, so its sort
// and sweep read two floats per corner rather than copying whole Metrics.
type objectives struct{ eps, energy float64 }

// dominates reports Pareto dominance of a over b in (EpsMul, EMul): a is no
// worse in both and strictly better in at least one.
func (a objectives) dominates(b objectives) bool {
	return a.eps <= b.eps && a.energy <= b.energy &&
		(a.eps < b.eps || a.energy < b.energy)
}

// ParetoRanks assigns each corner its non-dominated front in (EpsMul,
// EMul): rank 0 is the Pareto front, rank 1 the front of the rest, and so
// on — the NSGA-II layering. The ranks are those that peeling the fronts
// off one by one gives (an all-pairs dominance scan per front); one sorted
// sweep computes them in O(n log n) (Jensen 2003).
//
// The sweep visits the corners by (EpsMul, EMul) ascending and keeps one
// representative per front: the front's lowest EMul so far, paired with
// the EpsMul of the first corner that reached it. A corner's rank is the
// first front whose representative does not dominate it; the corner then
// opens a new front, or becomes that front's representative if its EMul
// is strictly lower.
//
// Why the ranks equal peeling: peeling ranks a corner by the longest chain
// of corners that dominate it. Every dominator sorts before the corner it
// dominates (exact duplicates dominate neither way), and a front holds a
// dominator of the visited corner exactly when its representative
// dominates it (the first-to-reach rule keeps this exact on EMul ties).
// Front k−1 always holds a corner that dominates front k's
// representative, so the fronts that dominate a corner form a prefix, and
// a binary search finds its end. A corner with a NaN objective neither
// dominates nor is dominated: it stays out of the sweep with rank 0, as
// peeling gives it.
func ParetoRanks(mets []Metrics) []int {
	rank := make([]int, len(mets))
	obj := make([]objectives, len(mets))
	order := make([]int, 0, len(mets))
	for i, m := range mets {
		obj[i] = objectives{m.EpsMul, m.EMul}
		if !math.IsNaN(m.EpsMul) && !math.IsNaN(m.EMul) {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(obj[a].eps, obj[b].eps); c != 0 {
			return c
		}
		return cmp.Compare(obj[a].energy, obj[b].energy)
	})
	var fronts []objectives // fronts[k] is front k's representative
	for _, i := range order {
		k := sort.Search(len(fronts), func(k int) bool { return !fronts[k].dominates(obj[i]) })
		rank[i] = k
		switch {
		case k == len(fronts):
			fronts = append(fronts, obj[i])
		case obj[i].energy < fronts[k].energy:
			fronts[k] = obj[i]
		}
	}
	return rank
}
