package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestQRSolvesSquareSystem(t *testing.T) {
	a := fromRows([][]float64{
		{4, 1, 2},
		{1, 5, 1},
		{2, 1, 6},
	})
	want := []float64{1, -2, 3}
	b, _ := a.MulVec(want)
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-10) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestQRLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 exactly from redundant observations.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2*x + 1
	}
	coef, resid, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(coef[0], 1, 1e-10) || !almostEq(coef[1], 2, 1e-10) {
		t.Fatalf("coef = %v, want [1 2]", coef)
	}
	if resid > 1e-10 {
		t.Fatalf("residual = %g, want ~0", resid)
	}
}

func TestQRResidualIsMinimal(t *testing.T) {
	// For an inconsistent system, perturbing the LS solution must not
	// decrease the residual.
	a := fromRows([][]float64{{1, 0}, {1, 0}, {0, 1}})
	b := []float64{0, 2, 1}
	x, resid, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	residAt := func(v []float64) float64 {
		av, _ := a.MulVec(v)
		var ss float64
		for i := range av {
			d := av[i] - b[i]
			ss += d * d
		}
		return math.Sqrt(ss)
	}
	if !almostEq(resid, residAt(x), 1e-12) {
		t.Fatalf("reported residual %g != recomputed %g", resid, residAt(x))
	}
	for _, delta := range [][]float64{{0.01, 0}, {-0.01, 0}, {0, 0.01}, {0, -0.01}} {
		perturbed := []float64{x[0] + delta[0], x[1] + delta[1]}
		if residAt(perturbed) < resid-1e-12 {
			t.Fatalf("perturbation %v decreased the residual", delta)
		}
	}
}

func TestQRUnderdeterminedRejected(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := FactorQR(a); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestQRSingularDetected(t *testing.T) {
	a := fromRows([][]float64{
		{1, 2},
		{2, 4},
		{3, 6},
	})
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestQRWrongRHSLength(t *testing.T) {
	a := NewMatrix(3, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	a.Set(2, 0, 1)
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestQRReconstruction(t *testing.T) {
	// R from the factorization must satisfy ‖A‖_F = ‖R‖_F (orthogonal Q).
	r := pseudoRand(7)
	a := randomMatrix(r, 6, 3)
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	var normA, normR float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			normA += a.At(i, j) * a.At(i, j)
			if j >= i {
				normR += f.qr.At(i, j) * f.qr.At(i, j)
			}
		}
	}
	if !almostEq(math.Sqrt(normA), math.Sqrt(normR), 1e-10) {
		t.Fatalf("‖A‖=%g but ‖R‖=%g", math.Sqrt(normA), math.Sqrt(normR))
	}
}

// Property: QR solve recovers random solutions of well-conditioned systems.
func TestQRRandomRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := pseudoRand(uint64(seed))
		a := randomMatrix(r, 5, 3)
		// Diagonal boost for conditioning.
		for i := 0; i < 3; i++ {
			a.Set(i, i, a.At(i, i)+3)
		}
		want := []float64{r.next(), r.next(), r.next()}
		b, _ := a.MulVec(want)
		x, _, err := LeastSquares(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if !almostEq(x[i], want[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
