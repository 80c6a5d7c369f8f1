// Package search is the adaptive multi-fidelity design-space explorer: it
// scales the paper's 48-corner exploration (internal/dse) to spaces orders
// of magnitude larger by screening candidates cheaply on the behavioral
// backend, promoting survivors rung by rung (successive halving ranked by
// (ϵ_mul, E_mul) Pareto rank and crowding distance), and re-evaluating only
// the finalists on the golden transient backend — the fidelity ladder that
// makes thousand-corner spaces tractable where exhaustive golden evaluation
// is not.
//
// The package is a pure exploration layer on the PR 1–3 substrate: every
// rung submits its candidates through engine.EvaluateBatch, so the memory →
// disk → backend cache tiers apply unchanged. With a persistent store
// attached (-cache-dir), a refinement sweep that revisits corners across
// sessions pays zero re-evaluation, and the per-rung Trace records exactly
// how much each tier absorbed.
//
// Determinism: candidate sampling is seeded (stats.NewRNG), survivors are
// selected by a deterministic total order (Pareto rank, then descending
// crowding distance, then candidate index), and the engine returns batch
// results in job order at any worker count — a search Result is
// byte-identical at -workers 1 and -workers N.
package search

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"optima/internal/dse"
	"optima/internal/mult"
	"optima/internal/stats"
)

// Axis is one dimension of a design space: either an explicit point list
// (Values) or a materialized range [Min, Max] with Steps points, spaced
// linearly or — for Log axes — geometrically. The zero Axis is invalid;
// construct axes with LinAxis/ValuesAxis or fill the fields and let
// Validate check them.
type Axis struct {
	// Name labels the axis in errors and reports ("tau0", "vdac0", ...).
	Name string
	// Values, when non-empty, enumerates the axis points explicitly (must be
	// finite and strictly increasing). It overrides the range fields — the
	// bridge from dse.Grid's explicit per-axis slices.
	Values []float64
	// Min, Max bound the materialized range when Values is empty.
	Min, Max float64
	// Steps is the number of materialized points (≥ 1; Steps == 1 requires
	// Min == Max).
	Steps int
	// Log spaces the materialized points geometrically (requires Min > 0)
	// and makes refinement midpoints geometric too.
	Log bool
}

// LinAxis returns a linearly spaced axis.
func LinAxis(name string, min, max float64, steps int) Axis {
	return Axis{Name: name, Min: min, Max: max, Steps: steps}
}

// ValuesAxis returns an axis over an explicit, strictly increasing point
// list.
func ValuesAxis(name string, values ...float64) Axis {
	return Axis{Name: name, Values: values}
}

// Validate checks the axis bounds. Every axis of a Space is validated
// before any corner is materialized — an empty or inverted axis is a
// descriptive error, never a silently empty sweep.
func (a Axis) Validate() error {
	if len(a.Values) > 0 {
		prev := math.Inf(-1)
		for _, v := range a.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("search: axis %s: non-finite value %v", a.Name, v)
			}
			if v <= prev {
				return fmt.Errorf("search: axis %s: values must be strictly increasing (%v after %v)", a.Name, v, prev)
			}
			prev = v
		}
		return nil
	}
	if a.Steps < 1 {
		return fmt.Errorf("search: axis %s: empty (no values and %d steps)", a.Name, a.Steps)
	}
	if math.IsNaN(a.Min) || math.IsInf(a.Min, 0) || math.IsNaN(a.Max) || math.IsInf(a.Max, 0) {
		return fmt.Errorf("search: axis %s: non-finite bounds [%v, %v]", a.Name, a.Min, a.Max)
	}
	if a.Min > a.Max {
		return fmt.Errorf("search: axis %s: min %v exceeds max %v", a.Name, a.Min, a.Max)
	}
	if a.Steps > 1 && a.Min == a.Max {
		return fmt.Errorf("search: axis %s: %d steps need min < max (got %v)", a.Name, a.Steps, a.Min)
	}
	if a.Steps == 1 && a.Min != a.Max {
		return fmt.Errorf("search: axis %s: a single step needs min == max (got [%v, %v])", a.Name, a.Min, a.Max)
	}
	if a.Log && a.Min <= 0 {
		return fmt.Errorf("search: axis %s: log spacing needs min > 0 (got %v)", a.Name, a.Min)
	}
	return nil
}

// Points materializes the axis into its point list. Call Validate first;
// Points on an invalid axis may return garbage.
func (a Axis) Points() []float64 {
	if len(a.Values) > 0 {
		out := make([]float64, len(a.Values))
		copy(out, a.Values)
		return out
	}
	out := make([]float64, a.Steps)
	if a.Steps == 1 {
		out[0] = a.Min
		return out
	}
	if a.Log {
		ratio := math.Log(a.Max / a.Min)
		for i := range out {
			out[i] = a.Min * math.Exp(ratio*float64(i)/float64(a.Steps-1))
		}
	} else {
		for i := range out {
			out[i] = a.Min + (a.Max-a.Min)*float64(i)/float64(a.Steps-1)
		}
	}
	// The endpoints are exact by construction for linear axes; pin the log
	// endpoint too so FromGrid-style round trips stay bitwise stable.
	out[0], out[a.Steps-1] = a.Min, a.Max
	return out
}

// midpoint returns the refinement point between two adjacent axis values:
// arithmetic for linear axes, geometric for log axes.
func (a Axis) midpoint(lo, hi float64) float64 {
	if a.Log {
		return math.Sqrt(lo * hi)
	}
	return lo + (hi-lo)/2
}

// Subdivided returns a copy of the axis with perGap midpoints inserted into
// every gap of the materialized point list (recursively bisected, so the
// original points stay bitwise identical — an embedded coarse grid remains
// an exact subset and its corners keep hitting the evaluation caches).
func (a Axis) Subdivided(perGap int) Axis {
	pts := a.Points()
	if perGap <= 0 || len(pts) < 2 {
		return ValuesAxis(a.Name, pts...)
	}
	out := []float64{pts[0]}
	for i := 1; i < len(pts); i++ {
		out = append(out, subdivideGap(a, pts[i-1], pts[i], perGap)...)
		out = append(out, pts[i])
	}
	sub := ValuesAxis(a.Name, out...)
	sub.Log = a.Log
	return sub
}

// subdivideGap bisects (lo, hi) recursively into perGap interior points
// (perGap is rounded up to the nearest 2^k−1 shape by depth; extra depth
// fills left-to-right). The recursive construction means a point inserted
// at depth d is reproduced exactly by d successive midpoint refinements.
func subdivideGap(a Axis, lo, hi float64, perGap int) []float64 {
	if perGap <= 0 {
		return nil
	}
	mid := a.midpoint(lo, hi)
	left := (perGap - 1) / 2
	right := perGap - 1 - left
	out := subdivideGap(a, lo, mid, left)
	out = append(out, mid)
	out = append(out, subdivideGap(a, mid, hi, right)...)
	return out
}

// Space spans a three-axis multiplier design space — the generalization of
// dse.Grid from explicit value slices to validated ranges with linear/log
// spacing and refinement. Tau0 is in seconds, VDAC0/VDACFS in volts (same
// units as mult.Config).
type Space struct {
	Tau0   Axis
	VDAC0  Axis
	VDACFS Axis
}

// FromGrid bridges a dse.Grid into a Space with explicit per-axis values.
// The grid's slices must be strictly increasing (Validate reports
// violations); the materialized corners are bitwise identical to the
// grid's, so results cached under grid sweeps keep serving.
func FromGrid(g dse.Grid) Space {
	return Space{
		Tau0:   ValuesAxis("tau0", g.Tau0s...),
		VDAC0:  ValuesAxis("vdac0", g.VDAC0s...),
		VDACFS: ValuesAxis("vdacfs", g.VDACFSs...),
	}
}

// axes returns the three axes in canonical order.
func (s Space) axes() [3]Axis { return [3]Axis{s.Tau0, s.VDAC0, s.VDACFS} }

// Validate checks every axis and reports the first violation.
func (s Space) Validate() error {
	for _, a := range s.axes() {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Configs lists the space's lattice: the full corner list (row-major: τ0
// outermost, V_DAC,FS innermost — the dse.Grid order) without physically
// invalid combinations (mult.Config.Validate). Unlike dse.Grid.Configs it
// can fail: an empty axis or a space whose combinations are all invalid is
// an error, never a silently empty exploration.
func (s Space) Configs() ([]mult.Config, error) {
	l, err := s.lattice()
	if err != nil {
		return nil, err
	}
	return sample(l.size(), 0, 0, l.at), nil // budget 0 keeps every corner
}

// Size counts the space's valid corners without listing them.
func (s Space) Size() (int, error) {
	l, err := s.lattice()
	return l.size(), err
}

// lattice is a space's valid corners as its valid τ0 points times its valid
// (V_DAC,0, V_DAC,FS) pairs: on finite points, which Space.Validate
// guarantees, mult.Config.Validate is mult.ValidateTau0 then
// mult.ValidateDAC. Corner i is taus[i/len(pairs)] with pairs[i%len(pairs)].
type lattice struct {
	taus  []float64
	pairs [][2]float64
}

// lattice validates the space and filters each axis once. With no valid
// corner it fails with the first corner's mult.Config.Validate error.
func (s Space) lattice() (lattice, error) {
	if err := s.Validate(); err != nil {
		return lattice{}, err
	}
	taus, v0s, fss := s.Tau0.Points(), s.VDAC0.Points(), s.VDACFS.Points()
	first := mult.Config{Tau0: taus[0], VDAC0: v0s[0], VDACFS: fss[0]}
	l := lattice{taus: slices.DeleteFunc(taus, func(tau float64) bool { return mult.ValidateTau0(tau) != nil })}
	for _, v0 := range v0s {
		for _, fs := range fss {
			if mult.ValidateDAC(v0, fs) == nil {
				l.pairs = append(l.pairs, [2]float64{v0, fs})
			}
		}
	}
	if l.size() == 0 {
		return lattice{}, fmt.Errorf("search: space has no valid corner: %w", first.Validate())
	}
	return l, nil
}

func (l lattice) size() int { return len(l.taus) * len(l.pairs) }

// at returns corner i.
func (l lattice) at(i int) mult.Config {
	p := l.pairs[i%len(l.pairs)]
	return mult.Config{Tau0: l.taus[i/len(l.pairs)], VDAC0: p[0], VDACFS: p[1]}
}

// sampleSubset is sample over a slice's items.
func sampleSubset[T any](items []T, budget int, seed uint64) []T {
	return sample(len(items), budget, seed, func(i int) T { return items[i] })
}

// sample picks min(budget, n) of n items without replacement using a seeded
// permutation and returns at(i) for each picked index i, in ascending order
// (budget <= 0 means all), so rung 0 samples a lattice without listing it.
func sample[T any](n, budget int, seed uint64, at func(int) T) []T {
	var picked []int
	if budget > 0 && budget < n {
		picked = stats.NewRNG(seed).Perm(n)[:budget]
		sort.Ints(picked)
	} else {
		picked = indexes(n)
	}
	out := make([]T, len(picked))
	for i, idx := range picked {
		out[i] = at(idx)
	}
	return out
}

// refiner tracks the evolving per-axis point sets during a search run:
// refinement inserts midpoints next to survivors, and later rungs bisect
// further. It exists so refinement depends only on the candidate history —
// not on worker scheduling — keeping runs deterministic.
type refiner struct {
	axes [3]Axis
	pts  [3][]float64 // sorted current point sets
}

func newRefiner(s Space) *refiner {
	r := &refiner{axes: s.axes()}
	for i, a := range r.axes {
		r.pts[i] = a.Points()
	}
	return r
}

// insert adds v to axis i's sorted point set (no-op when present).
func (r *refiner) insert(i int, v float64) {
	pts := r.pts[i]
	at := sort.SearchFloat64s(pts, v)
	if at < len(pts) && pts[at] == v {
		return
	}
	pts = append(pts, 0)
	copy(pts[at+1:], pts[at:])
	pts[at] = v
	r.pts[i] = pts
}

// proposal is one refinement candidate: a survivor with one axis value
// replaced by a midpoint. Proposals are speculative — nothing enters the
// refiner's state until Commit, so a candidate dropped by the per-rung cap
// can be re-proposed in a later rung and never skews future midpoints.
type proposal struct {
	cfg  mult.Config
	axis int
	val  float64
}

// Around proposes refinement candidates near the survivors: for each
// survivor and each axis, the midpoints between the survivor's value and
// its current axis neighbors (one axis varied at a time, the others held).
// Proposals are validated and deduplicated against seen and against each
// other, in deterministic (survivor, axis, side) order. The refiner's
// point sets are not modified — pass the chosen subset to Commit.
func (r *refiner) Around(survivors []mult.Config, seen map[mult.Config]bool) []proposal {
	var out []proposal
	proposed := make(map[mult.Config]bool, 2*len(r.axes)*len(survivors))
	for _, s := range survivors {
		vals := [3]float64{s.Tau0, s.VDAC0, s.VDACFS}
		for ai := range r.axes {
			pts := r.pts[ai]
			at := sort.SearchFloat64s(pts, vals[ai])
			if at >= len(pts) || pts[at] != vals[ai] {
				continue // off-lattice survivor (shouldn't happen): skip
			}
			var mids []float64
			if at > 0 {
				mids = append(mids, r.axes[ai].midpoint(pts[at-1], pts[at]))
			}
			if at < len(pts)-1 {
				mids = append(mids, r.axes[ai].midpoint(pts[at], pts[at+1]))
			}
			for _, mid := range mids {
				cand := s
				switch ai {
				case 0:
					cand.Tau0 = mid
				case 1:
					cand.VDAC0 = mid
				case 2:
					cand.VDACFS = mid
				}
				if cand.Validate() != nil || seen[cand] || proposed[cand] {
					continue
				}
				proposed[cand] = true
				out = append(out, proposal{cfg: cand, axis: ai, val: mid})
			}
		}
	}
	return out
}

// Commit accepts the chosen proposals: their corners are marked seen, the
// midpoints enter the axis point sets (so later rungs bisect further), and
// the corner list is returned in proposal order.
func (r *refiner) Commit(props []proposal, seen map[mult.Config]bool) []mult.Config {
	out := make([]mult.Config, len(props))
	for i, p := range props {
		seen[p.cfg] = true
		r.insert(p.axis, p.val)
		out[i] = p.cfg
	}
	return out
}
