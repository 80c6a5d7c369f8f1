package stats

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", v)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	r := NewRNG(3)
	var acc Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(r.Uniform(2, 6))
	}
	if math.Abs(acc.Mean()-4) > 0.02 {
		t.Fatalf("uniform mean = %g, want ≈4", acc.Mean())
	}
	wantVar := 16.0 / 12.0
	if math.Abs(acc.Variance()-wantVar) > 0.03 {
		t.Fatalf("uniform variance = %g, want ≈%g", acc.Variance(), wantVar)
	}
}

func TestIntNUniformity(t *testing.T) {
	r := NewRNG(11)
	counts := make([]int, 5)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.IntN(5)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/5) > 4*math.Sqrt(n/5) {
			t.Fatalf("bucket %d count %d deviates from %d", i, c, n/5)
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).IntN(0)
}

func TestGaussianMoments(t *testing.T) {
	r := NewRNG(5)
	var acc Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(r.Gaussian(3, 2))
	}
	if math.Abs(acc.Mean()-3) > 0.03 {
		t.Fatalf("gaussian mean = %g, want ≈3", acc.Mean())
	}
	if math.Abs(acc.StdDev()-2) > 0.03 {
		t.Fatalf("gaussian std = %g, want ≈2", acc.StdDev())
	}
}

func TestGaussianTailFractions(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	within1, within2 := 0, 0
	for i := 0; i < n; i++ {
		v := r.Norm()
		if math.Abs(v) < 1 {
			within1++
		}
		if math.Abs(v) < 2 {
			within2++
		}
	}
	if f := float64(within1) / n; math.Abs(f-0.6827) > 0.01 {
		t.Fatalf("P(|z|<1) = %g, want ≈0.683", f)
	}
	if f := float64(within2) / n; math.Abs(f-0.9545) > 0.01 {
		t.Fatalf("P(|z|<2) = %g, want ≈0.954", f)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSplitDecorrelated(t *testing.T) {
	r := NewRNG(23)
	s := r.Split()
	matches := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == s.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("%d matches between parent and split stream", matches)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	var acc Accumulator
	if !math.IsNaN(RMS(nil)) || !math.IsNaN(acc.Mean()) {
		t.Fatal("expected NaN for empty inputs")
	}
	acc.Add(1)
	if !math.IsNaN(acc.StdDev()) {
		t.Fatal("expected NaN spread from one sample")
	}
}

func TestRMSKnown(t *testing.T) {
	if got := RMS([]float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("rms = %g", got)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	r := NewRNG(31)
	xs := make([]float64, 1000)
	var acc Accumulator
	for i := range xs {
		xs[i] = r.Gaussian(1, 3)
		acc.Add(xs[i])
	}
	// Two-pass batch mean and unbiased variance.
	var sum, ss float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	if !almost(acc.Mean(), mean, 1e-10) {
		t.Fatalf("acc mean %g vs batch %g", acc.Mean(), mean)
	}
	if !almost(acc.Variance(), variance, 1e-8) {
		t.Fatalf("acc var %g vs batch %g", acc.Variance(), variance)
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !almost(got[i], want[i], 1e-12) {
			t.Fatalf("linspace = %v", got)
		}
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }
