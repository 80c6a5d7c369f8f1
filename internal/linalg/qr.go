package linalg

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m×n matrix with m ≥ n.
// The factorization is stored compactly: the upper triangle of qr holds R
// and the lower trapezoid holds the Householder vectors.
type QR struct {
	qr  *Matrix
	tau []float64 // Householder scalar factors
}

// FactorQR computes the Householder QR factorization of a. The input is not
// modified. It returns ErrShape for under-determined systems (rows < cols).
func FactorQR(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("linalg: QR of %d×%d (rows < cols): %w", m, n, ErrShape)
	}
	f := &QR{qr: a.Clone(), tau: make([]float64, n)}
	for k := 0; k < n; k++ {
		// Norm of the k-th column below the diagonal.
		col := make([]float64, m-k)
		for i := k; i < m; i++ {
			col[i-k] = f.qr.At(i, k)
		}
		alpha := Norm2(col)
		if alpha == 0 {
			f.tau[k] = 0
			continue
		}
		if f.qr.At(k, k) > 0 {
			alpha = -alpha
		}
		// Householder vector v = x − alpha·e1, normalized so v[0] = 1.
		v0 := f.qr.At(k, k) - alpha
		f.qr.Set(k, k, alpha)
		for i := k + 1; i < m; i++ {
			f.qr.Set(i, k, f.qr.At(i, k)/v0)
		}
		f.tau[k] = -v0 / alpha
		// Apply the reflector to the trailing columns.
		for j := k + 1; j < n; j++ {
			s := f.qr.At(k, j)
			for i := k + 1; i < m; i++ {
				s += f.qr.At(i, k) * f.qr.At(i, j)
			}
			s *= f.tau[k]
			f.qr.Set(k, j, f.qr.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				f.qr.Set(i, j, f.qr.At(i, j)-s*f.qr.At(i, k))
			}
		}
	}
	return f, nil
}

// applyQT overwrites b (length m) with Qᵀ·b.
func (f *QR) applyQT(b []float64) {
	m, n := f.qr.Rows(), f.qr.Cols()
	for k := 0; k < n; k++ {
		if f.tau[k] == 0 {
			continue
		}
		s := b[k]
		for i := k + 1; i < m; i++ {
			s += f.qr.At(i, k) * b[i]
		}
		s *= f.tau[k]
		b[k] -= s
		for i := k + 1; i < m; i++ {
			b[i] -= s * f.qr.At(i, k)
		}
	}
}

// Solve returns the least-squares solution x minimizing ‖a·x − b‖₂ using the
// factorization. len(b) must equal the number of rows of the factored matrix.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Rows(), f.qr.Cols()
	if len(b) != m {
		return nil, fmt.Errorf("linalg: QR solve rhs length %d, want %d: %w", len(b), m, ErrShape)
	}
	work := make([]float64, m)
	copy(work, b)
	f.applyQT(work)
	x := make([]float64, n)
	copy(x, work[:n])
	// Rank check: a pivot far below the largest diagonal entry means the
	// columns are linearly dependent to working precision.
	var maxDiag float64
	for i := 0; i < n; i++ {
		if d := math.Abs(f.qr.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	tol := 1e-12 * maxDiag
	// Back substitution with R.
	for i := n - 1; i >= 0; i-- {
		d := f.qr.At(i, i)
		if math.Abs(d) <= tol {
			return nil, fmt.Errorf("linalg: negligible pivot at column %d: %w", i, ErrSingular)
		}
		for j := i + 1; j < n; j++ {
			x[i] -= f.qr.At(i, j) * x[j]
		}
		x[i] /= d
	}
	return x, nil
}

// LeastSquares solves min ‖a·x − b‖₂ via Householder QR, returning the
// coefficient vector and the residual 2-norm.
func LeastSquares(a *Matrix, b []float64) (x []float64, residual float64, err error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, 0, err
	}
	x, err = f.Solve(b)
	if err != nil {
		return nil, 0, err
	}
	ax, err := a.MulVec(x)
	if err != nil {
		return nil, 0, err
	}
	var ss float64
	for i, v := range ax {
		d := v - b[i]
		ss += d * d
	}
	return x, math.Sqrt(ss), nil
}
