package poly

import (
	"testing"

	"optima/internal/stats"
)

func BenchmarkFitDegree4(b *testing.B) {
	xs := stats.Linspace(0, 1, 200)
	truth := New(1, -2, 3, -1, 0.5)
	ys := evalAll(truth, xs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Fit(xs, ys, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitSeparableALS(b *testing.B) {
	px, py := New(0, 1, 0.5), New(0.2, 0.9)
	var samples []Sample
	for _, x := range stats.Linspace(0, 1, 20) {
		for _, y := range stats.Linspace(0, 2, 20) {
			samples = append(samples, Sample{X: x, Y: y, Z: px.Eval(x) * py.Eval(y)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FitSeparable(samples, 4, 2, 80, 1e-13); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEval(b *testing.B) {
	p := New(1, 2, 3, 4, 5)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.Eval(0.7)
	}
	_ = sink
}
