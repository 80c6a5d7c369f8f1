package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"optima/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted input
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{xs, 50, 100},
		{xs, 95, 190},
		{xs, 100, 200},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{7}, 95, 7},
		{nil, 50, 0},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v…, %v) = %v, want %v", c.xs[:min(len(c.xs), 4)], c.p, got, c.want)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile sorted its input in place")
	}
}

// TestP95NotATailBelow200 checks the report marks p95 as no tail below 200
// samples, where fewer than ten samples lie beyond it.
func TestP95NotATailBelow200(t *testing.T) {
	for _, n := range []int{199, 200} {
		var buf bytes.Buffer
		s := summary{metrics: []metric{{name: "op_p95_ms", unit: "ms"}},
			values: map[string]float64{"op_p95_ms": 1}, samples: map[string]int{"op_p95_ms": n}}
		s.printTable(&buf)
		if got := strings.Contains(buf.String(), "not a tail"); got != (n < 200) {
			t.Errorf("n=%d: 'not a tail' note %v", n, got)
		}
	}
}

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

// TestSelfTimesOverlappingForest checks self time is a span's duration
// minus the union of its children's intervals, clipped to it.
func TestSelfTimesOverlappingForest(t *testing.T) {
	spans := []obs.Span{
		{ID: 1, Cat: obs.CatBatch, Start: ms(0), Dur: ms(10)},
		// Two overlapping children cover [1, 6); a third sticks out past
		// the parent's end and covers [8, 10) of it.
		{ID: 2, Parent: 1, Cat: obs.CatEval, Start: ms(1), Dur: ms(3)},
		{ID: 3, Parent: 1, Cat: obs.CatEval, Start: ms(3), Dur: ms(3)},
		{ID: 4, Parent: 1, Cat: obs.CatEval, Start: ms(8), Dur: ms(4)},
		{ID: 5, Parent: 3, Cat: obs.CatPhase, Start: ms(4), Dur: ms(1)},
		{ID: 6, Cat: benchCat, Name: "store.open", Start: ms(20), Dur: ms(2)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		obs.CatBatch: ms(3),         // 10 − |[1,6) ∪ [8,10)|
		obs.CatEval:  ms(3 + 2 + 4), // span 3 loses its child's 1 ms
		obs.CatPhase: ms(1),
		"store":      ms(2), // a benchmark span books to its layer
	}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], d)
		}
	}
	if len(self) != len(want) {
		t.Errorf("layers %v, want %v", self, want)
	}
}

// TestAttributeRoots checks a root span the program recorded without a
// parent is attributed to the shortest span containing it, while benchmark
// spans and server jobs stay roots.
func TestAttributeRoots(t *testing.T) {
	spans := []obs.Span{
		{ID: 1, Cat: benchCat, Name: "search.run", Start: ms(0), Dur: ms(100)},
		{ID: 2, Parent: 1, Cat: obs.CatSearch, Start: ms(1), Dur: ms(98)},
		{ID: 3, Parent: 2, Cat: obs.CatBatch, Start: ms(10), Dur: ms(50)},
		{ID: 4, Cat: obs.CatStore, Name: "put-batch", Start: ms(55), Dur: ms(4)}, // inside batch 3
		{ID: 5, Cat: obs.CatJob, Start: ms(20), Dur: ms(5)},                      // a job stays a root
		{ID: 6, Cat: obs.CatRemote, Name: "dispatch", Start: ms(20), Dur: ms(5)}, // same interval as the job
		{ID: 7, Cat: obs.CatBatch, Start: ms(200), Dur: ms(5)},                   // contained by nothing
	}
	got := attributeRoots(spans)
	wantParent := map[obs.SpanID]obs.SpanID{1: 0, 2: 1, 3: 2, 4: 3, 5: 0, 6: 5, 7: 0}
	for _, s := range got {
		if s.Parent != wantParent[s.ID] {
			t.Errorf("span %d: parent %d, want %d", s.ID, s.Parent, wantParent[s.ID])
		}
	}
	if spans[3].Parent != 0 {
		t.Error("attributeRoots modified its input")
	}
}
