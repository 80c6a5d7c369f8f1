package linalg

import (
	"errors"
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewMatrixZeroInitialized(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %d×%d, want 3×4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0×3 matrix")
		}
	}()
	NewMatrix(0, 3)
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 43)
	if got := m.At(1, 2); got != 43 {
		t.Fatalf("At(1,2) = %g, want 43", got)
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds access")
		}
	}()
	m.At(2, 0)
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	got, err := a.MulVec([]float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("A·x = %v, want [17 39]", got)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Norm2 must not overflow for large entries.
	big := 1e200
	got := Norm2([]float64{big, big})
	want := big * math.Sqrt2
	if !almostEq(got, want, 1e-12) {
		t.Fatalf("Norm2 = %g, want %g", got, want)
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) != 0")
	}
}

// pseudoRand is a tiny deterministic generator for property tests.
type lcg struct{ state uint64 }

func pseudoRand(seed uint64) *lcg { return &lcg{state: seed*2862933555777941757 + 3037000493} }

func (l *lcg) next() float64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return float64(l.state>>11)/float64(1<<53)*2 - 1
}

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func randomMatrix(r *lcg, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.next())
		}
	}
	return m
}
