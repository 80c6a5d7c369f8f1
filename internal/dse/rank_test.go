package dse

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// refParetoRanks is the test oracle for ParetoRanks: the NSGA-II peel,
// which strips the non-dominated front off the remaining corners, one
// all-pairs dominance scan per front, and reads two whole Metrics per
// comparison.
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
// ties in one objective and exact duplicates; some pools carry NaN, which
// breaks the order axioms the front peeling relies on, and some ±Inf and
// −0, which compare equal to +0. The 1,024-candidate pools, the size of a
// search rung, are correlated (many fronts) or anti-correlated (one long
// front).
func TestParetoRanksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0x9a7e))
	draw := func(levels int) float64 {
		if levels == 0 {
			return rng.Float64()
		}
		return float64(rng.IntN(levels))
	}
	special := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for pool := 0; pool < 400; pool++ {
		n := 1 + rng.IntN(120)
		levels := []int{0, 3, 8, 30}[pool%4]
		mets := make([]Metrics, n)
		for i := range mets {
			mets[i].EpsMul, mets[i].EMul = draw(levels), draw(levels)*1e-15
			mets[i].SigmaMaxLSB = rng.Float64() // not an objective
			switch {
			case pool%5 == 4 && rng.IntN(10) == 0:
				if rng.IntN(2) == 0 {
					mets[i].EpsMul = math.NaN()
				} else {
					mets[i].EMul = math.NaN()
				}
			case pool%7 == 6 && rng.IntN(4) == 0:
				if rng.IntN(2) == 0 {
					mets[i].EpsMul = special[rng.IntN(len(special))]
				} else {
					mets[i].EMul = special[rng.IntN(len(special))]
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
	for _, anti := range []bool{false, true} {
		for pool := 0; pool < 4; pool++ {
			mets := rungPool(rng, anti)
			got, want := ParetoRanks(mets), refParetoRanks(mets)
			if !slices.Equal(got, want) {
				t.Fatalf("1,024-candidate pool %d (anti-correlated %v): ranks %v, reference %v", pool, anti, got, want)
			}
			if fronts := slices.Max(want) + 1; anti && fronts > 8 || !anti && fronts < 20 {
				t.Fatalf("1,024-candidate pool %d (anti-correlated %v) has %d fronts", pool, anti, fronts)
			}
		}
	}
}

// rungPool draws 1,024 candidates, the pool of a search rung. Correlated
// objectives (a better EpsMul tends to come with a better EMul) stack many
// fronts; anti-correlated ones trade one against the other along one long
// front.
func rungPool(rng *rand.Rand, anti bool) []Metrics {
	mets := make([]Metrics, 1024)
	for i := range mets {
		x := rng.Float64()
		y := x + 0.3*rng.Float64()
		if anti {
			y = 1 - x + 0.01*rng.Float64()
		}
		mets[i].EpsMul, mets[i].EMul = x, y*1e-14
	}
	return mets
}

// BenchmarkParetoRanks ranks one correlated 1,024-candidate pool, the size
// of a search rung.
func BenchmarkParetoRanks(b *testing.B) {
	mets := rungPool(rand.New(rand.NewPCG(7, 0x9a7e)), false)
	b.ReportAllocs()
	for b.Loop() {
		ParetoRanks(mets)
	}
}

// FuzzParetoRanks: on any pool the ranks equal the reference's. Each byte
// pair decodes to one candidate's (EpsMul, EMul); a byte below 8 is a
// special value (NaN, ±Inf, ±0, ±MaxFloat64, the smallest subnormal), any
// other one of 31 levels, so pools are rich in ties and duplicates.
func FuzzParetoRanks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 9, 9, 8, 10, 10, 8, 9})
	f.Add([]byte{0, 8, 8, 0, 1, 2, 2, 1, 3, 4, 4, 3, 5, 6, 7, 7})
	f.Add([]byte{20, 30, 30, 20, 25, 25, 20, 30, 3, 3, 4, 30, 40, 2})
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	value := func(b byte) float64 {
		if int(b) < len(special) {
			return special[b]
		}
		return float64(int(b) % 31)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mets := make([]Metrics, min(len(data)/2, 256))
		for i := range mets {
			mets[i].EpsMul, mets[i].EMul = value(data[2*i]), value(data[2*i+1])
		}
		if got, want := ParetoRanks(mets), refParetoRanks(mets); !slices.Equal(got, want) {
			t.Fatalf("objectives %v: ranks %v, reference %v", data[:2*len(mets)], got, want)
		}
	})
}
