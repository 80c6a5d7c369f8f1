package linalg

import "testing"

func BenchmarkQRFactorSolve(b *testing.B) {
	r := pseudoRand(1)
	a := randomMatrix(r, 200, 8)
	rhs := make([]float64, 200)
	for i := range rhs {
		rhs[i] = r.next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
