package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"optima/internal/obs"
)

// minTailSamples is the sample count from which op_p95_ms is a tail: with
// at least 200 ops, ten or more lie beyond the 95th percentile. Below it
// the nearest-rank p95 reads as one of the slowest ops.
const minTailSamples = 200

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// benchCat is the span category of the benchmark's own spans around the
// public calls it makes; their names read "<layer>.<call>".
const benchCat = "bench"

// spanLayer is the row a span's self time is booked to: the layer prefix of
// a benchmark span, the category of a span the program recorded itself.
func spanLayer(s obs.Span) string {
	if s.Cat == benchCat {
		layer, _, _ := strings.Cut(s.Name, ".")
		return layer
	}
	return s.Cat
}

// attributeRoots gives a parent to every root span the program recorded
// without one — engine batches submitted outside a search, store appends,
// fleet dispatches — so their time is not also counted in the span that
// issued them. The parent is the shortest span whose interval contains the
// root's. Benchmark spans and server jobs stay roots: a job runs while
// several clients wait, so containment does not say whose it is. The order
// (longer, then older) makes the parent relation acyclic.
func attributeRoots(spans []obs.Span) []obs.Span {
	out := append([]obs.Span(nil), spans...)
	for i := range out {
		r := out[i]
		if r.Parent != 0 || r.Cat == benchCat || r.Cat == obs.CatJob {
			continue
		}
		best := -1
		for j, c := range spans {
			if j == i || c.Start > r.Start || c.End() < r.End() {
				continue
			}
			if c.Dur < r.Dur || (c.Dur == r.Dur && c.ID >= r.ID) {
				continue
			}
			if best < 0 || c.Dur < spans[best].Dur || (c.Dur == spans[best].Dur && c.ID > spans[best].ID) {
				best = j
			}
		}
		if best >= 0 {
			out[i].Parent = spans[best].ID
		}
	}
	return out
}

// selfTimes sums, per layer (spanLayer), each span's duration minus the
// part of its interval its children cover. Children may overlap one another
// — parallel evaluations under one batch — so the covered part is the
// union of their intervals, clipped to the parent's.
func selfTimes(spans []obs.Span) map[string]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := map[obs.SpanID][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End()})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered time.Duration
		cur := iv{-1, -1}
		for _, c := range ivs {
			c.lo, c.hi = max(c.lo, s.Start), min(c.hi, s.End())
			if c.hi <= c.lo {
				continue
			}
			if c.lo > cur.hi {
				if cur.hi > cur.lo {
					covered += cur.hi - cur.lo
				}
				cur = c
				continue
			}
			cur.hi = max(cur.hi, c.hi)
		}
		if cur.hi > cur.lo {
			covered += cur.hi - cur.lo
		}
		out[spanLayer(s)] += s.Dur - covered
	}
	return out
}
