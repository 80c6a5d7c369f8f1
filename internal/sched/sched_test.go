package sched

import (
	"errors"
	"testing"
)

func TestMapOrderingAndErrors(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := Map(8, items, func(i, v int) (int, error) { return v * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 2*i {
			t.Fatalf("out[%d] = %d, want %d (ordering broken)", i, v, 2*i)
		}
	}

	wantErr := errors.New("boom")
	if _, err := Map(8, items, func(i, v int) (int, error) {
		if v >= 37 {
			return 0, wantErr
		}
		return v, nil
	}); !errors.Is(err, wantErr) {
		t.Fatalf("Map error = %v, want %v", err, wantErr)
	}

	if out, err := Map(4, nil, func(i, v int) (int, error) { return v, nil }); err != nil || out != nil {
		t.Fatalf("empty Map = (%v, %v), want (nil, nil)", out, err)
	}
}

func TestMapWorkerClamping(t *testing.T) {
	// More workers than items, and the GOMAXPROCS default, must both work.
	for _, workers := range []int{0, -1, 1, 64} {
		out, err := Map(workers, []int{1, 2, 3}, func(i, v int) (int, error) { return v, nil })
		if err != nil || len(out) != 3 {
			t.Fatalf("workers=%d: (%v, %v)", workers, out, err)
		}
	}
}

func TestSplit(t *testing.T) {
	const total = 8
	cases := []struct {
		jobs                              int
		wantWorkers, wantIntra, wantExtra int
	}{
		{1, 1, 8, 0},  // one job gets the whole budget
		{3, 3, 2, 2},  // 3×2 + 2 remainder grants = exactly 8
		{8, 8, 1, 0},  // exact fit
		{48, 8, 1, 0}, // more jobs than budget: job-level fan-out only
	}
	for _, c := range cases {
		gotW, gotI, gotE := Split(total, c.jobs)
		if gotW != c.wantWorkers || gotI != c.wantIntra || gotE != c.wantExtra {
			t.Errorf("Split(%d) = (%d, %d, %d), want (%d, %d, %d)",
				c.jobs, gotW, gotI, gotE, c.wantWorkers, c.wantIntra, c.wantExtra)
		}
		// The grants of all potentially concurrent jobs must cover — and
		// never exceed — the budget.
		inFlight := c.jobs
		if inFlight > gotW {
			inFlight = gotW
		}
		sum := inFlight*gotI + gotE
		if sum > total {
			t.Errorf("Split(%d) oversubscribes: %d×%d + %d extra > %d", c.jobs, inFlight, gotI, gotE, total)
		}
		if c.jobs <= total && sum != total {
			t.Errorf("Split(%d) strands budget: %d×%d + %d extra < %d", c.jobs, inFlight, gotI, gotE, total)
		}
	}
}
