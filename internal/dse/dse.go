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
	"fmt"
	"math"
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

// ParetoFront returns the corners not dominated in (EpsMul, EMul): a corner
// dominates another if it is no worse in both metrics and strictly better
// in at least one. The result is sorted by energy.
func ParetoFront(metrics []Metrics) []Metrics {
	var front []Metrics
	for i, m := range metrics {
		dominated := false
		for j, o := range metrics {
			if i == j {
				continue
			}
			if o.EpsMul <= m.EpsMul && o.EMul <= m.EMul &&
				(o.EpsMul < m.EpsMul || o.EMul < m.EMul) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, m)
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].EMul < front[j].EMul })
	return front
}
