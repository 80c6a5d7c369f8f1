package dse

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// refParetoRanks is ParetoRanks as it was before the objectives were
// projected: the dominance test reads two whole Metrics per comparison.
func refParetoRanks(mets []Metrics) []int {
	dominates := func(a, b Metrics) bool {
		return a.EpsMul <= b.EpsMul && a.EMul <= b.EMul &&
			(a.EpsMul < b.EpsMul || a.EMul < b.EMul)
	}
	n := len(mets)
	rank := make([]int, n)
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	for level := 0; len(remaining) > 0; level++ {
		var front, rest []int
		for _, i := range remaining {
			dominated := false
			for _, j := range remaining {
				if i != j && dominates(mets[j], mets[i]) {
					dominated = true
					break
				}
			}
			if dominated {
				rest = append(rest, i)
			} else {
				front = append(front, i)
			}
		}
		if len(front) == 0 {
			for _, i := range rest {
				rank[i] = level
			}
			break
		}
		for _, i := range front {
			rank[i] = level
		}
		remaining = rest
	}
	return rank
}

// TestParetoRanksMatchReference: on seeded random pools the ranks equal
// the reference's. Objectives are drawn from a few levels so pools hold
// ties in one objective and exact duplicates, and some pools carry NaN,
// which breaks the order axioms the front peeling relies on.
func TestParetoRanksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0x9a7e))
	draw := func(levels int) float64 {
		if levels == 0 {
			return rng.Float64()
		}
		return float64(rng.IntN(levels))
	}
	for pool := 0; pool < 400; pool++ {
		n := 1 + rng.IntN(120)
		levels := []int{0, 3, 8, 30}[pool%4]
		mets := make([]Metrics, n)
		for i := range mets {
			mets[i].EpsMul, mets[i].EMul = draw(levels), draw(levels)*1e-15
			mets[i].SigmaMaxLSB = rng.Float64() // not an objective
			if pool%5 == 4 && rng.IntN(10) == 0 {
				if rng.IntN(2) == 0 {
					mets[i].EpsMul = math.NaN()
				} else {
					mets[i].EMul = math.NaN()
				}
			}
		}
		if n > 1 && pool%3 == 0 {
			mets[n-1] = mets[0] // an exact duplicate
		}
		if got, want := ParetoRanks(mets), refParetoRanks(mets); !slices.Equal(got, want) {
			t.Fatalf("pool %d (%d candidates, %d levels): ranks %v, reference %v", pool, n, levels, got, want)
		}
	}
}
