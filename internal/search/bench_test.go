package search_test

import (
	"context"
	"runtime"
	"testing"

	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/search"
)

// BenchmarkSearchAdaptive tracks the adaptive explorer end to end on the
// 1200-corner acceptance space: a cold behavioral screen plus halving and
// selection overhead.
func BenchmarkSearchAdaptive(b *testing.B) {
	m := testModel(b)
	sp := search.FromGrid(dse.DefaultGrid())
	sp.Tau0 = sp.Tau0.Subdivided(32)

	b.Run("cold/1200-corners", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := search.Run(context.Background(), search.Options{
				Space:  sp,
				Screen: engine.New(engine.Behavioral{Model: m}, runtime.NumCPU()),
				Rungs:  2,
				Seed:   1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Front) == 0 {
				b.Fatal("empty front")
			}
		}
	})
	b.Run("cached/1200-corners", func(b *testing.B) {
		eng := engine.New(engine.Behavioral{Model: m}, runtime.NumCPU())
		opts := search.Options{Space: sp, Screen: eng, Rungs: 2, Seed: 1}
		if _, err := search.Run(context.Background(), opts); err != nil {
			b.Fatal(err) // warm the cache outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := search.Run(context.Background(), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
