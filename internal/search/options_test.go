package search_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"optima/internal/engine"
	"optima/internal/search"
)

func testSpaceSmall(t *testing.T) search.Space {
	t.Helper()
	sp, err := search.ParseSpaceSpec("0.16:0.28:4", "0.3,0.4", "0.8,1.0")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestOptionsValidate(t *testing.T) {
	m := testModel(t)
	screen := engine.New(engine.Behavioral{Model: m}, 2)
	base := search.Options{Screen: screen}

	cases := []struct {
		name string
		mut  func(*search.Options)
		want string // substring of the error; empty means valid
	}{
		{"defaults", func(o *search.Options) {}, ""},
		{"missing screen", func(o *search.Options) { o.Screen = nil }, "Screen engine is required"},
		{"negative budget", func(o *search.Options) { o.Budget = -5 }, "budget -5 must be >= 0"},
		{"negative rungs", func(o *search.Options) { o.Rungs = -1 }, "rungs -1 must be >= 0"},
		{"negative finalists", func(o *search.Options) { o.Finalists = -2 }, "finalists -2 must be >= 0"},
		{"eta below one", func(o *search.Options) { o.Eta = 0.5 }, "must exceed 1"},
		{"eta exactly one", func(o *search.Options) { o.Eta = 1 }, "must exceed 1"},
		{"eta NaN", func(o *search.Options) { o.Eta = math.NaN() }, "non-finite"},
		{"eta Inf", func(o *search.Options) { o.Eta = math.Inf(1) }, "non-finite"},
		{"explicit valid", func(o *search.Options) { o.Budget, o.Rungs, o.Eta, o.Finalists = 10, 2, 3, 4 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			tc.mut(&opts)
			err := opts.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestRunObservers checks the live-progress contract the optima-server
// streams as job events: OnRung fires once per rung, in order, with
// exactly the stats recorded in the trace; OnProgress is monotone within
// each rung and completes every rung's batch.
func TestRunObservers(t *testing.T) {
	m := testModel(t)
	sp := testSpaceSmall(t)

	var rungs []search.RungStats
	type prog struct{ rung, done, total int }
	var progress []prog
	res, err := search.Run(context.Background(), search.Options{
		Space:  sp,
		Screen: engine.New(engine.Behavioral{Model: m}, 4),
		Rungs:  2,
		Seed:   1,
		OnRung: func(rs search.RungStats) { rungs = append(rungs, rs) },
		OnProgress: func(rung, done, total int) {
			progress = append(progress, prog{rung, done, total})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rungs, res.Trace.Rungs) {
		t.Fatalf("OnRung saw %+v, want the trace's %+v", rungs, res.Trace.Rungs)
	}
	for i, rs := range rungs {
		if rs.Rung != i {
			t.Fatalf("rung %d reported index %d", i, rs.Rung)
		}
	}
	if len(progress) == 0 {
		t.Fatal("no OnProgress calls")
	}
	lastPerRung := map[int]prog{}
	prevDone := map[int]int{}
	for _, p := range progress {
		if p.done <= prevDone[p.rung] {
			t.Fatalf("rung %d progress not monotone: %v", p.rung, progress)
		}
		prevDone[p.rung] = p.done
		lastPerRung[p.rung] = p
	}
	for rung, p := range lastPerRung {
		if p.done != p.total {
			t.Fatalf("rung %d progress ended at %d/%d, want complete", rung, p.done, p.total)
		}
	}
}

func TestRunCanceled(t *testing.T) {
	m := testModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := search.Run(ctx, search.Options{
		Space:  testSpaceSmall(t),
		Screen: engine.New(engine.Behavioral{Model: m}, 2),
		Rungs:  2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on a canceled context returned %v, want context.Canceled", err)
	}
}
