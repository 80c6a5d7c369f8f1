package poly

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"optima/internal/stats"
)

// refLeastSquares is the least-squares solve leastSquares replaced, kept as
// its oracle: factor a copy of a by Householder QR (a column copy and an
// overflow-scaled norm per step), then apply Qᵀ to b in a second pass, then
// back-substitute with the 1e-12·max|R_ii| rank check, then take the
// residual of the product a·x computed as a vector. leastSquares must give
// the same bits.
func refLeastSquares(a []float64, n int, b []float64) ([]float64, float64, error) {
	m := len(b)
	qr := append([]float64(nil), a...)
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		col := make([]float64, m-k)
		for i := k; i < m; i++ {
			col[i-k] = qr[i*n+k]
		}
		alpha := refNorm2(col)
		if alpha == 0 {
			tau[k] = 0
			continue
		}
		if qr[k*n+k] > 0 {
			alpha = -alpha
		}
		v0 := qr[k*n+k] - alpha
		qr[k*n+k] = alpha
		for i := k + 1; i < m; i++ {
			qr[i*n+k] = qr[i*n+k] / v0
		}
		tau[k] = -v0 / alpha
		for j := k + 1; j < n; j++ {
			s := qr[k*n+j]
			for i := k + 1; i < m; i++ {
				s += qr[i*n+k] * qr[i*n+j]
			}
			s *= tau[k]
			qr[k*n+j] = qr[k*n+j] - s
			for i := k + 1; i < m; i++ {
				qr[i*n+j] = qr[i*n+j] - s*qr[i*n+k]
			}
		}
	}
	work := append([]float64(nil), b...)
	for k := 0; k < n; k++ {
		if tau[k] == 0 {
			continue
		}
		s := work[k]
		for i := k + 1; i < m; i++ {
			s += qr[i*n+k] * work[i]
		}
		s *= tau[k]
		work[k] -= s
		for i := k + 1; i < m; i++ {
			work[i] -= s * qr[i*n+k]
		}
	}
	x := append([]float64(nil), work[:n]...)
	var maxDiag float64
	for i := 0; i < n; i++ {
		if d := math.Abs(qr[i*n+i]); d > maxDiag {
			maxDiag = d
		}
	}
	tol := 1e-12 * maxDiag
	for i := n - 1; i >= 0; i-- {
		d := qr[i*n+i]
		if math.Abs(d) <= tol {
			return nil, 0, fmt.Errorf("negligible pivot at column %d", i)
		}
		for j := i + 1; j < n; j++ {
			x[i] -= qr[i*n+j] * x[j]
		}
		x[i] /= d
	}
	ax := make([]float64, m)
	for i := range ax {
		var s float64
		for j, v := range a[i*n : (i+1)*n] {
			s += v * x[j]
		}
		ax[i] = s
	}
	var ss float64
	for i, v := range ax {
		d := v - b[i]
		ss += d * d
	}
	return x, math.Sqrt(ss), nil
}

// refNorm2 is refLeastSquares' overflow-guarded Euclidean norm.
func refNorm2(v []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		a := math.Abs(x)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// sameBits reports whether x and y are the same float64 bit for bit, any
// two NaNs counting as equal: which operand's payload a NaN-in, NaN-out
// operation keeps depends on an operand order the compiler may swap.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// mulVec returns a·x for the row-major len(a)/len(x)-row matrix a.
func mulVec(a, x []float64) []float64 {
	out := make([]float64, len(a)/len(x))
	for i := range out {
		for j, v := range a[i*len(x) : (i+1)*len(x)] {
			out[i] += v * x[j]
		}
	}
	return out
}

func residual(a, x, b []float64) float64 {
	var ss float64
	for i, v := range mulVec(a, x) {
		ss += (v - b[i]) * (v - b[i])
	}
	return math.Sqrt(ss)
}

// TestLeastSquaresSolvesSquareSystem: a well-conditioned 3×3 system gives
// back the x its right-hand side was made from.
func TestLeastSquaresSolvesSquareSystem(t *testing.T) {
	a := []float64{
		4, 1, 2,
		1, 5, 1,
		2, 1, 6,
	}
	want := []float64{1, -2, 3}
	x, _, err := leastSquares(a, 3, mulVec(a, want))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

// TestLeastSquaresOverdetermined: the line y = 2t + 1 through five
// redundant observations comes back exactly, with a zero residual.
func TestLeastSquaresOverdetermined(t *testing.T) {
	ts := []float64{0, 1, 2, 3, 4}
	a := make([]float64, 0, 2*len(ts))
	b := make([]float64, len(ts))
	for i, x := range ts {
		a = append(a, 1, x)
		b[i] = 2*x + 1
	}
	x, resid, err := leastSquares(a, 2, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Fatalf("x = %v, want [1 2]", x)
	}
	if resid > 1e-10 {
		t.Fatalf("residual = %g, want ~0", resid)
	}
}

// TestLeastSquaresRankDeficient: a design whose second column is twice
// its first has no unique solution, which is ErrFit.
func TestLeastSquaresRankDeficient(t *testing.T) {
	a := []float64{
		1, 2,
		2, 4,
		3, 6,
	}
	if _, _, err := leastSquares(a, 2, []float64{1, 2, 3}); !errors.Is(err, ErrFit) {
		t.Fatalf("err = %v, want ErrFit", err)
	}
}

// TestLeastSquaresHugeEntries: the column norm is scaled, so entries near
// 1e200, whose squares overflow, still solve to the coefficients. (The
// residual is not scaled: any rounding left in a·x squares past MaxFloat64.)
func TestLeastSquaresHugeEntries(t *testing.T) {
	const big = 1e200
	a := []float64{
		big, 0,
		big, big,
		0, big,
	}
	want := []float64{1, 2}
	x, _, err := leastSquares(a, 2, mulVec(a, want))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

// TestLeastSquaresResidualIsMinimal: on an inconsistent system the
// reported residual is that of the returned x, and no perturbation of x
// lowers it.
func TestLeastSquaresResidualIsMinimal(t *testing.T) {
	a := []float64{
		1, 0,
		1, 0,
		0, 1,
	}
	b := []float64{0, 2, 1}
	x, resid, err := leastSquares(a, 2, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := residual(a, x, b); math.Abs(resid-got) > 1e-12 {
		t.Fatalf("reported residual %g != recomputed %g", resid, got)
	}
	for _, delta := range [][]float64{{0.01, 0}, {-0.01, 0}, {0, 0.01}, {0, -0.01}} {
		if r := residual(a, []float64{x[0] + delta[0], x[1] + delta[1]}, b); r < resid-1e-12 {
			t.Fatalf("perturbation %v lowered the residual from %g to %g", delta, resid, r)
		}
	}
}

// TestLeastSquaresRandomRecovery: a random diagonally boosted design, square
// or overdetermined, gives back the x its right-hand side was made from.
func TestLeastSquaresRandomRecovery(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		const n = 3
		m := n + int(seed%3)
		a := make([]float64, m*n)
		for i := range a {
			a[i] = rng.Uniform(-1, 1)
		}
		for i := 0; i < n; i++ {
			a[i*n+i] += 3
		}
		want := []float64{rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)}
		x, _, err := leastSquares(a, n, mulVec(a, want))
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzLeastSquares: on any design of 1–6 columns and up to nine extra rows,
// the one-pass kernel gives the coefficients, residual and error of the
// two-pass QR it replaced (refLeastSquares), bit for bit. With raw set the
// entries are arbitrary float64 bit patterns (NaN, ±Inf, −0 and subnormals
// included); otherwise they are small multiples of 1/256, which makes exact
// and rank-deficient systems common. Missing bytes read as zero.
func FuzzLeastSquares(f *testing.F) {
	small := func(vs ...int16) []byte {
		out := make([]byte, 2*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(v))
		}
		return out
	}
	f.Add(uint8(2), uint8(1), false, small(256, 0, 256, 256, 256, 512, 256, 768, 256, 512, 768, 1024))
	f.Add(uint8(1), uint8(1), false, small(256, 512, 512, 1024, 768, 1536, 1, 2, 3))
	f.Add(uint8(0), uint8(2), false, small(4, 1, 2, 1, 5, 1, 2, 1, 6, 1, -2, 3))
	raw := make([]byte, 8*12)
	for i, v := range []float64{1e200, 0, 1e200, 1e200, 0, 1e200, math.Copysign(0, -1), 1, 1e-310, 1, 2, 3} {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	f.Add(uint8(2), uint8(1), true, raw)
	f.Fuzz(func(t *testing.T, extra, cols uint8, raw bool, data []byte) {
		n := 1 + int(cols%6)
		m := n + int(extra%10)
		vals := make([]float64, m*n+m)
		for i := range vals {
			if raw {
				var w [8]byte
				copy(w[:], data[min(8*i, len(data)):])
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
			} else {
				var w [2]byte
				copy(w[:], data[min(2*i, len(data)):])
				vals[i] = float64(int16(binary.LittleEndian.Uint16(w[:]))) / 256
			}
		}
		a, b := vals[:m*n], vals[m*n:]
		design := append([]float64(nil), a...)
		x, resid, err := leastSquares(a, n, b)
		wantX, wantResid, wantErr := refLeastSquares(a, n, b)
		for i := range a {
			if !sameBits(a[i], design[i]) {
				t.Fatalf("leastSquares modified the design at %d: %g, was %g", i, a[i], design[i])
			}
		}
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%d×%d: err = %v, reference err = %v", m, n, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrFit) {
				t.Fatalf("err = %v, want ErrFit", err)
			}
			return
		}
		for i := range wantX {
			if !sameBits(x[i], wantX[i]) {
				t.Fatalf("%d×%d: x = %v, reference %v", m, n, x, wantX)
			}
		}
		if !sameBits(resid, wantResid) {
			t.Fatalf("%d×%d: residual = %v, reference %v", m, n, resid, wantResid)
		}
	})
}
