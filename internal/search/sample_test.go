package search

import (
	"reflect"
	"testing"

	"optima/internal/dse"
	"optima/internal/mult"
)

// TestSampleDeterministicSubset pins the seeded subset every search rung
// draws its candidates with.
func TestSampleDeterministicSubset(t *testing.T) {
	all, err := FromGrid(dse.DefaultGrid()).Configs()
	if err != nil {
		t.Fatal(err)
	}
	a := sampleSubset(all, 10, 7)
	b := sampleSubset(all, 10, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must sample the same corners")
	}
	if len(a) != 10 {
		t.Fatalf("sampled %d corners, want 10", len(a))
	}
	// The sample preserves grid order.
	pos := map[mult.Config]int{}
	for i, c := range all {
		pos[c] = i
	}
	for i := 1; i < len(a); i++ {
		if pos[a[i]] <= pos[a[i-1]] {
			t.Fatal("sample must preserve space order")
		}
	}
	c := sampleSubset(all, 10, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should sample different corners")
	}
	full := sampleSubset(all, 0, 1)
	if !reflect.DeepEqual(full, all) {
		t.Fatal("budget <= 0 must return the full space")
	}
}
