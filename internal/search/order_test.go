package search

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"optima/internal/dse"
)

// refParetoOrder is the test oracle for paretoOrder: the selection order
// it replaced, whose crowding groups ranks through a map[int][]int and
// reads each objective through a closure over whole Metrics, and whose
// sorts are sort.SliceStable calls with the same less relations.
func refParetoOrder(mets []dse.Metrics) []int {
	n := len(mets)
	rank := dse.ParetoRanks(mets)
	crowd := make([]float64, n)
	byRank := map[int][]int{}
	for i, r := range rank {
		byRank[r] = append(byRank[r], i)
	}
	for _, members := range byRank {
		if len(members) <= 2 {
			for _, i := range members {
				crowd[i] = math.Inf(1)
			}
			continue
		}
		for _, obj := range []func(dse.Metrics) float64{
			func(m dse.Metrics) float64 { return m.EpsMul },
			func(m dse.Metrics) float64 { return m.EMul },
		} {
			idx := append([]int(nil), members...)
			sort.SliceStable(idx, func(a, b int) bool {
				va, vb := obj(mets[idx[a]]), obj(mets[idx[b]])
				if va != vb {
					return va < vb
				}
				return idx[a] < idx[b]
			})
			lo, hi := obj(mets[idx[0]]), obj(mets[idx[len(idx)-1]])
			crowd[idx[0]] = math.Inf(1)
			crowd[idx[len(idx)-1]] = math.Inf(1)
			if span := hi - lo; span > 0 {
				for k := 1; k < len(idx)-1; k++ {
					gap := (obj(mets[idx[k+1]]) - obj(mets[idx[k-1]])) / span
					crowd[idx[k]] += gap
				}
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if rank[ia] != rank[ib] {
			return rank[ia] < rank[ib]
		}
		if crowd[ia] != crowd[ib] {
			return crowd[ia] > crowd[ib]
		}
		return ia < ib
	})
	return order
}

// TestParetoOrderMatchesReference: on seeded pools of 0 to 1,024
// candidates the order equals the reference's. Objectives come from a few
// levels, so pools hold ties and exact duplicates; some pools carry NaN,
// ±Inf and −0, which make crowding distances NaN or infinite.
func TestParetoOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0x0bde))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for pool := 0; pool < 300; pool++ {
		n := rng.IntN(130)
		if pool%25 == 24 {
			n = 1024 // a search rung
		}
		levels := []int{0, 3, 8, 30}[pool%4]
		mets := make([]dse.Metrics, n)
		for i := range mets {
			draw := func() float64 {
				if levels == 0 {
					return rng.Float64()
				}
				return float64(rng.IntN(levels))
			}
			mets[i].EpsMul, mets[i].EMul = draw(), draw()*1e-15
			if pool%3 == 2 && rng.IntN(8) == 0 {
				v := special[rng.IntN(len(special))]
				if rng.IntN(2) == 0 {
					mets[i].EpsMul = v
				} else {
					mets[i].EMul = v
				}
			}
		}
		if n > 1 && pool%5 == 0 {
			mets[n-1] = mets[0] // an exact duplicate
		}
		if got, want := paretoOrder(mets), refParetoOrder(mets); !slices.Equal(got, want) {
			t.Fatalf("pool %d (%d candidates, %d levels): order %v, reference %v", pool, n, levels, got, want)
		}
	}
}

// FuzzParetoOrder: on any pool the order equals the reference's. Each
// byte pair decodes to one candidate's (EpsMul, EMul); a byte below 8 is a
// special value (NaN, ±Inf, ±0, ±MaxFloat64, the smallest subnormal), any
// other one of 31 levels, so pools are rich in ties and duplicates.
func FuzzParetoOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 9, 9, 8, 10, 10, 8, 9, 12, 12, 9, 11})
	f.Add([]byte{0, 8, 8, 0, 1, 2, 2, 1, 3, 4, 4, 3, 5, 6, 7, 7, 9, 9})
	f.Add([]byte{20, 30, 30, 20, 25, 25, 20, 30, 3, 3, 4, 30, 40, 2, 1, 1})
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	value := func(b byte) float64 {
		if int(b) < len(special) {
			return special[b]
		}
		return float64(int(b) % 31)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mets := make([]dse.Metrics, min(len(data)/2, 1024))
		for i := range mets {
			mets[i].EpsMul, mets[i].EMul = value(data[2*i]), value(data[2*i+1])
		}
		if got, want := paretoOrder(mets), refParetoOrder(mets); !slices.Equal(got, want) {
			t.Fatalf("objectives %v: order %v, reference %v", data[:2*len(mets)], got, want)
		}
	})
}
