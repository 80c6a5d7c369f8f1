package main

import (
	"reflect"
	"testing"

	"optima/internal/engine"
	"optima/internal/search"
	"optima/internal/server"
)

func TestExploreOptionsDeterministicPerSeed(t *testing.T) {
	sz := sizesFor(false).explore
	screen := engine.New(engine.Behavioral{}, 1)
	for k := 0; k < 4; k++ {
		a, err := exploreOptions(sz, 1, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := exploreOptions(sz, 1, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("op %d: options differ between two draws of seed 1", k)
		}
		c, err := exploreOptions(sz, 2, k)
		if err != nil {
			t.Fatal(err)
		}
		if a.Seed == c.Seed {
			t.Errorf("op %d: seeds 1 and 2 give the same search seed %d", k, a.Seed)
		}
		if k > 0 {
			prev, _ := exploreOptions(sz, 1, k-1)
			if prev.Seed == a.Seed {
				t.Errorf("ops %d and %d share search seed %d", k-1, k, a.Seed)
			}
		}
		a.Screen = screen
		if err := a.Validate(); err != nil {
			t.Errorf("op %d: %v", k, err)
		}
		if n, err := a.Space.Size(); err != nil || n != 53200 {
			t.Errorf("op %d: space of %d corners (%v), want 53200", k, n, err)
		}
	}
}

func draw(seed uint64, client, n int) []server.JobRequest {
	g := newJobGen(seed, client)
	out := make([]server.JobRequest, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestJobGenDeterministicPerSeed(t *testing.T) {
	const n = 300
	a, b := draw(1, 0, n), draw(1, 0, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two draws of seed 1 differ")
	}
	if reflect.DeepEqual(a, draw(2, 0, n)) {
		t.Error("seeds 1 and 2 draw the same jobs")
	}
	if reflect.DeepEqual(a, draw(1, 1, n)) {
		t.Error("clients 0 and 1 draw the same jobs")
	}
}

// TestJobGenSpecsAreValid checks that every generated job is one the
// server accepts: its axes parse, its conditions parse, and a search's
// options validate.
func TestJobGenSpecsAreValid(t *testing.T) {
	screen := engine.New(engine.Behavioral{}, 1)
	kinds := map[string]int{}
	repeats := 0
	seen := map[server.JobRequest]bool{}
	for client := 0; client < 2; client++ {
		for _, req := range append(draw(7, client, 400), jobPool(7)...) {
			kinds[req.Kind]++
			if seen[req] {
				repeats++
			}
			seen[req] = true
			space, err := search.ParseSpaceSpec(req.Tau0, req.VDAC0, req.VDACFS)
			if err != nil {
				t.Fatalf("%+v: %v", req, err)
			}
			conds, err := engine.ParseConditionSet(req.Conditions)
			if err != nil {
				t.Fatalf("%+v: %v", req, err)
			}
			if req.Kind == server.KindSweep && conds.Len() != 1 {
				t.Errorf("sweep over %d conditions", conds.Len())
			}
			if req.Kind == server.KindSearch {
				if err := jobSearchOptions(req, space, conds, screen).Validate(); err != nil {
					t.Errorf("%+v: %v", req, err)
				}
			}
		}
	}
	for _, kind := range []string{server.KindSweep, server.KindMatrix, server.KindSearch} {
		if kinds[kind] == 0 {
			t.Errorf("no %s jobs drawn", kind)
		}
	}
	if repeats == 0 {
		t.Error("no spec repeats: the pool is never drawn")
	}
}
