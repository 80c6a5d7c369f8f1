package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/mult"
	"optima/internal/spice"
	"optima/internal/sram"
	"optima/internal/stats"
)

// TestGoldenTrimCachedAcrossConditions pins the trim cache: a condition
// sweep over one configuration pays the 16 trim transients exactly once.
func TestGoldenTrimCachedAcrossConditions(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-simulation bound")
	}
	calib := core.QuickCalibration()
	backend := NewGoldenBackend(calib.Tech, calib.Spice)
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}

	first, err := backend.trimFor(cfg, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.LSBVolt <= 0 || first.Transients != mult.OperandMax+1 {
		t.Fatalf("implausible trim %+v", first)
	}
	second, err := backend.trimFor(cfg, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("cached trim differs: %+v vs %+v", second, first)
	}
	if got := backend.TrimCalibrations(); got != 1 {
		t.Fatalf("%d trim calibrations for one config, want 1", got)
	}

	// A different configuration calibrates its own trim.
	other := mult.Config{Tau0: 0.20e-9, VDAC0: 0.3, VDACFS: 1.0}
	if _, err := backend.trimFor(other, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := backend.TrimCalibrations(); got != 2 {
		t.Fatalf("%d trim calibrations for two configs, want 2", got)
	}

	// The zero value must work too (lazy map init).
	var zero Golden
	zero.Tech, zero.Spice = calib.Tech, calib.Spice
	if _, err := zero.trimFor(cfg, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := zero.trimFor(cfg, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := zero.TrimCalibrations(); got != 1 {
		t.Fatalf("zero-value backend ran %d calibrations, want 1", got)
	}
}

// TestGoldenTrimSingleflightConcurrent pins the trim cache's claim
// semantics: concurrent first evaluations of one configuration share a
// single 16-transient calibration instead of each running their own (run
// with -race to check the claimed-entry handoff).
func TestGoldenTrimSingleflightConcurrent(t *testing.T) {
	calib := core.QuickCalibration()
	backend := NewGoldenBackend(calib.Tech, calib.Spice)
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}

	const goroutines = 8
	trims := make([]mult.GoldenTrim, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trims[i], errs[i] = backend.trimFor(cfg, 1, nil, 0)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if trims[i] != trims[0] {
			t.Fatalf("goroutine %d got a different trim: %+v vs %+v", i, trims[i], trims[0])
		}
	}
	if got := backend.TrimCalibrations(); got != 1 {
		t.Fatalf("%d trim calibrations under concurrent first use, want 1 (singleflight)", got)
	}
}

// TestGoldenEvaluateWorkerInvariance mirrors the sweep-level worker-
// invariance test one layer down: the golden backend's Metrics must be
// byte-identical at every intra-job worker count, because the engine's
// content-addressed cache (and the persistent store) index them by key
// alone.
func TestGoldenEvaluateWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-simulation bound")
	}
	calib := core.QuickCalibration()
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}
	cond := device.Nominal()

	serialBackend := NewGoldenBackend(calib.Tech, calib.Spice)
	base, err := serialBackend.EvaluateBudget(cfg, cond, 1) // serial path
	if err != nil {
		t.Fatal(err)
	}
	if base.EpsMul <= 0 || base.SigmaMaxLSB <= 0 {
		t.Fatalf("implausible serial metrics %+v", base)
	}
	for _, intra := range []int{2, runtime.GOMAXPROCS(0), 0} {
		// Fresh backend per count so the trim calibration itself also runs
		// at this worker count.
		backend := NewGoldenBackend(calib.Tech, calib.Spice)
		m, err := backend.EvaluateBudget(cfg, cond, intra)
		if err != nil {
			t.Fatal(err)
		}
		if m != base {
			t.Fatalf("intra=%d metrics differ from serial:\n  got  %+v\n  want %+v", intra, m, base)
		}
	}
}

var (
	trimBenchOnce sync.Once
	trimBenchTech = device.Generic65()
	trimBenchCfg  = spice.Config{}
)

func trimBenchSetup() {
	trimBenchOnce.Do(func() {
		calib := core.QuickCalibration()
		trimBenchTech = calib.Tech
		trimBenchCfg = calib.Spice
	})
}

// BenchmarkGoldenTrim quantifies the satellite win: cold is the 16-transient
// calibration every golden evaluation used to pay per (config, condition);
// cached is the per-condition cost after the backend memoized the config.
func BenchmarkGoldenTrim(b *testing.B) {
	trimBenchSetup()
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mult.CalibrateGoldenTrim(trimBenchTech, cfg, trimBenchCfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		backend := NewGoldenBackend(trimBenchTech, trimBenchCfg)
		if _, err := backend.trimFor(cfg, 1, nil, 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := backend.trimFor(cfg, 1, nil, 0); err != nil {
				b.Fatal(err)
			}
		}
		if got := backend.TrimCalibrations(); got != 1 {
			b.Fatalf("cached path recalibrated: %d calibrations", got)
		}
	})
}

// BenchmarkGoldenEvaluate quantifies the intra-job budget: one cold golden
// corner (16 trim + 64 input-space table + 4×GoldenSigmaSamples Monte-Carlo
// transients, 176 in all) evaluated serially versus with an 8-worker
// intra-job budget. A fresh backend per iteration keeps every run cold —
// this is the per-corner cost a golden sweep pays, and the
// serial-vs-parallel gap is the intra-job speed-up (recorded in CI's
// BENCH_engine.json).
func BenchmarkGoldenEvaluate(b *testing.B) {
	trimBenchSetup()
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}
	cond := device.Nominal()
	for _, intra := range []int{1, 8} {
		b.Run(fmt.Sprintf("cold/intra=%d", intra), func(b *testing.B) {
			var base *Metrics
			for i := 0; i < b.N; i++ {
				backend := NewGoldenBackend(trimBenchTech, trimBenchCfg)
				m, err := backend.EvaluateBudget(cfg, cond, intra)
				if err != nil {
					b.Fatal(err)
				}
				if base == nil {
					base = &m
				} else if m != *base {
					b.Fatalf("metrics drifted between runs: %+v vs %+v", m, *base)
				}
			}
		})
	}
}

// referenceGoldenMetrics is EvaluateCell as it read before the input space
// composed from a mult.GoldenTable: one MultiplyCells per input pair (512
// transients), then the Monte-Carlo σ, all serial.
func referenceGoldenMetrics(t *testing.T, tech device.Tech, scfg spice.Config, cfg mult.Config, cond device.PVT) Metrics {
	t.Helper()
	gm, err := mult.NewGolden(tech, cfg, cond, scfg)
	if err != nil {
		t.Fatal(err)
	}
	m := Metrics{Config: cfg, Cond: cond, LSBVolt: gm.LSBVolt}
	var scr spice.Scratch
	if err := m.accumulate(func(a, d uint) (eps, energy float64, err error) {
		r, err := gm.MultiplyCells(a, d, nil, &scr)
		if err != nil {
			return 0, 0, err
		}
		return math.Abs(float64(r.ErrorLSB())), r.Energy, nil
	}); err != nil {
		t.Fatal(err)
	}
	var vAcc stats.Accumulator
	for s := 0; s < GoldenSigmaSamples; s++ {
		var cells sram.Word
		cells.SampleMismatch(tech, stats.NewRNG(goldenSigmaSeed+uint64(s)))
		r, err := gm.MultiplyCells(mult.OperandMax, mult.OperandMax, &cells, &scr)
		if err != nil {
			t.Fatal(err)
		}
		vAcc.Add(r.VComb)
	}
	m.SigmaMaxVolt = vAcc.StdDev()
	m.SigmaMaxLSB = m.SigmaMaxVolt / gm.LSBVolt
	return m
}

// TestGoldenEvaluateMatchesPairReference pins the table-composed input space
// to the per-pair path it replaced: Metrics equal the reference's field for
// field, serial and at GOMAXPROCS, for two configurations at two
// conditions.
func TestGoldenEvaluateMatchesPairReference(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-simulation bound")
	}
	calib := core.QuickCalibration()
	jobs := []Job{
		{Config: mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}, Cond: device.Nominal()},
		{Config: mult.Config{Tau0: 0.24e-9, VDAC0: 0.4, VDACFS: 0.7}, Cond: device.PVT{Corner: device.CornerSS, VDD: 0.9, TempC: 60}},
	}
	for _, job := range jobs {
		want := referenceGoldenMetrics(t, calib.Tech, calib.Spice, job.Config, job.Cond)
		for _, intra := range []int{1, runtime.GOMAXPROCS(0)} {
			got, err := NewGoldenBackend(calib.Tech, calib.Spice).EvaluateBudget(job.Config, job.Cond, intra)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v at %v, intra=%d:\n  got  %+v\n  want %+v", job.Config, job.Cond, intra, got, want)
			}
		}
	}
}

// TestGoldenNonFiniteCornerFails pins the non-finite bugfix end to end: a
// DAC full scale that passes mult.Config.Validate but overflows the device
// currents must fail the cell with spice.ErrNonFinite, not return NaN
// Metrics with a nil error, which the engine would memoize.
func TestGoldenNonFiniteCornerFails(t *testing.T) {
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1e300}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("the corner must pass validation to reach the solver: %v", err)
	}
	m, err := NewGoldenBackend(device.Generic65(), spice.DefaultConfig()).EvaluateBudget(cfg, device.Nominal(), 2)
	if !errors.Is(err, spice.ErrNonFinite) {
		t.Fatalf("VDACFS=%g: err = %v with EMul %g, LSBVolt %g; want an error wrapping spice.ErrNonFinite",
			cfg.VDACFS, err, m.EMul, m.LSBVolt)
	}
}
