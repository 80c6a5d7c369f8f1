package engine_test

import (
	"runtime"
	"sync"
	"testing"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/obs"
	"optima/internal/store"
)

var (
	benchOnce  sync.Once
	benchModel *core.Model
	benchErr   error
)

func modelFixture(tb testing.TB) *core.Model {
	tb.Helper()
	benchOnce.Do(func() {
		benchModel, benchErr = core.Calibrate(core.QuickCalibration())
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchModel
}

// benchJobs is the paper's 48-corner grid at the nominal condition.
func benchJobs() []engine.Job {
	return engine.Jobs(dse.DefaultGrid().Configs(), device.Nominal())
}

// BenchmarkBehavioralEvaluate tracks the per-corner cost of the behavioral
// backend's hot loop — one full 16x16 operand sweep per Evaluate call,
// served by the deterministic per-condition tables (allocation-free).
func BenchmarkBehavioralEvaluate(b *testing.B) {
	model := modelFixture(b)
	backend := engine.Behavioral{Model: model}
	cfg := dse.DefaultGrid().Configs()[0]
	cond := device.Nominal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Evaluate(cfg, cond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateMatrix tracks the cross-condition evaluation plane: the
// paper's 48-corner grid at 1 vs 5 operating conditions, cold (every cell
// runs the backend) vs warm (every cell is a memory-tier hit). The 5-
// condition cold case is the Fig. 8 robust-sweep workload; warm is what a
// robust search rung pays when it revisits the plane.
func BenchmarkEvaluateMatrix(b *testing.B) {
	model := modelFixture(b)
	cfgs := dse.DefaultGrid().Configs()
	conds5, err := engine.ParseConditionSet("TT@1V@27C,SS@0.9V@60C,FF@1.1V@0C,TT@0.95V@45C,TT@1.05V@10C")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		conds engine.ConditionSet
	}{
		{"conds=1", engine.NominalConditions()},
		{"conds=5", conds5},
	} {
		b.Run(tc.name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := engine.New(engine.Behavioral{Model: model}, runtime.NumCPU())
				if _, err := eng.EvaluateMatrix(cfgs, tc.conds); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/warm", func(b *testing.B) {
			eng := engine.New(engine.Behavioral{Model: model}, runtime.NumCPU())
			if _, err := eng.EvaluateMatrix(cfgs, tc.conds); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.EvaluateMatrix(cfgs, tc.conds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSweep tracks the two wins the engine exists for: worker
// fan-out on a cold sweep (workers=1 vs workers=NumCPU) and the
// content-addressed cache (cold vs cached re-sweep, the ≥5× acceptance
// target).
func BenchmarkEngineSweep(b *testing.B) {
	model := modelFixture(b)
	jobs := benchJobs()

	b.Run("cold/workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Behavioral{Model: model}, 1)
			if _, err := eng.EvaluateBatch(jobs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold/workers=numcpu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Behavioral{Model: model}, runtime.NumCPU())
			if _, err := eng.EvaluateBatch(jobs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		eng := engine.New(engine.Behavioral{Model: model}, runtime.NumCPU())
		if _, err := eng.EvaluateBatch(jobs); err != nil {
			b.Fatal(err) // warm the cache outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.EvaluateBatch(jobs); err != nil {
				b.Fatal(err)
			}
		}
		st := eng.Stats()
		b.ReportMetric(float64(st.Hits), "cache-hits")
	})
	// warm-from-disk: a fresh engine (a new "process") served entirely by
	// the persistent store — the cross-run reuse the store exists for.
	b.Run("warm-from-disk", func(b *testing.B) {
		dir := b.TempDir()
		fp, err := store.Fingerprint(engine.MetricsSchema, model)
		if err != nil {
			b.Fatal(err)
		}
		seed, err := store.Open(dir, store.Options{Fingerprint: fp})
		if err != nil {
			b.Fatal(err)
		}
		// Populate the store outside the timed loop.
		if _, err := engine.New(engine.Behavioral{Model: model}, runtime.NumCPU()).WithStore(seed).EvaluateBatch(jobs); err != nil {
			b.Fatal(err)
		}
		if err := seed.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := store.Open(dir, store.Options{Fingerprint: fp})
			if err != nil {
				b.Fatal(err)
			}
			eng := engine.New(engine.Behavioral{Model: model}, runtime.NumCPU()).WithStore(st)
			if _, err := eng.EvaluateBatch(jobs); err != nil {
				b.Fatal(err)
			}
			es := eng.Stats()
			if es.Misses != 0 {
				b.Fatalf("warm-from-disk run recomputed %d corners", es.Misses)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecorderOverhead measures the recorder's cost: the same cold
// 48-corner sweep with no recorder vs a fully attached one (spans +
// counters + histograms on every evaluation); the target is < 5% ns/op
// over nil.
func BenchmarkRecorderOverhead(b *testing.B) {
	model := modelFixture(b)
	jobs := benchJobs()
	run := func(rec *obs.Recorder) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := engine.New(engine.Behavioral{Model: model}, runtime.NumCPU()).WithRecorder(rec)
				if _, err := eng.EvaluateBatch(jobs); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("nil", run(nil))
	b.Run("instrumented", run(obs.NewRecorder(obs.RecorderOptions{})))
}
