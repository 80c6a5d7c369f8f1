package remote

import (
	"fmt"
	"io"
	"log/slog"
	"testing"
	"time"

	"optima/internal/core"
	"optima/internal/engine"
	"optima/internal/mult"
)

// benchJobs is the golden matrix the distribution benchmark evaluates: 2
// configurations × 2 corners = 4 cells, each a full transistor-level golden
// evaluation (trim + input space + Monte-Carlo) — the unit of work the
// fleet exists to spread out.
func benchJobs() []engine.Job {
	conds, err := engine.ParseConditionSet("TT@1.0V@27C,SS@0.90V@60C")
	if err != nil {
		panic(err)
	}
	return engine.MatrixJobs([]mult.Config{
		{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0},
		{Tau0: 0.20e-9, VDAC0: 0.3, VDACFS: 1.0},
	}, conds)
}

// benchFleet starts a coordinator and n in-process workers, each with its
// own fresh golden backend (cold trim caches) and an intra budget of 2.
func benchFleet(b *testing.B, calib core.CalibrationConfig, n int) (*Fleet, []*Worker) {
	b.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f, err := Listen("127.0.0.1:0", Options{Fingerprint: "bench", Logger: quiet})
	if err != nil {
		b.Fatal(err)
	}
	ws := make([]*Worker, n)
	for i := range ws {
		ws[i], err = Dial(f.Addr(), WorkerOptions{
			Fingerprint: "bench",
			Backends: func(string) (engine.Backend, error) {
				return engine.NewGoldenBackend(calib.Tech, calib.Spice), nil
			},
			Workers: 2,
			Logger:  quiet,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	waitFor(b, 5*time.Second, func() bool { return f.WorkerCount() == n })
	return f, ws
}

// sleepBackend models a worker with its own compute: each evaluation is a
// fixed service time (a remote SPICE job bound by the worker machine, not
// by this host's cores). Sleeping instead of burning CPU lets the scale/*
// series demonstrate fleet scaling even on a single-core CI host, where
// CPU-bound in-process workers cannot physically run in parallel.
type sleepBackend struct{ d time.Duration }

func (sleepBackend) Name() string { return "behavioral" }

func (b sleepBackend) EvaluateCell(_ engine.Eval, j engine.Job) (engine.Metrics, error) {
	time.Sleep(b.d)
	return fakeMetrics(j.Config, j.Cond), nil
}

// BenchmarkRemoteMatrix measures the fleet in three regimes. cold/* is the
// real end-to-end cost of a golden matrix on this host, serial versus
// fleet (on a single-core host the fleet's duplicated per-worker trims make
// this an overhead measurement; on multi-core it is the speed-up). scale/*
// shows the distribution win itself with service-time-bound workers: 4
// workers should beat local serial by well over 2×. warm/* is the rerun
// over a shared store, which must ship nothing (it fails otherwise).
func BenchmarkRemoteMatrix(b *testing.B) {
	calib := core.QuickCalibration()
	jobs := benchJobs()

	b.Run("cold/local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.NewGoldenBackend(calib.Tech, calib.Spice), 1)
			if _, err := eng.EvaluateBatch(jobs); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("cold/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Fleet setup (listen, dial, handshake) is part of the
				// measured cost: it is what a distributed run actually pays,
				// and it is microseconds against the golden transients.
				f, ws := benchFleet(b, calib, workers)
				eng := engine.New(engine.NewGoldenBackend(calib.Tech, calib.Spice), workers).WithDispatcher(f)
				if _, err := eng.EvaluateBatch(jobs); err != nil {
					b.Fatal(err)
				}
				for _, w := range ws {
					w.Close()
				}
				f.Close()
			}
		})
	}

	scaleJobs := testJobs(6) // 18 cells at a fixed 10ms service time each
	b.Run("scale/local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.New(sleepBackend{d: 10 * time.Millisecond}, 1)
			if _, err := eng.EvaluateBatch(scaleJobs); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("scale/workers=%d", workers), func(b *testing.B) {
			quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
			f, err := Listen("127.0.0.1:0", Options{Fingerprint: "bench", Logger: quiet})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			for i := 0; i < workers; i++ {
				w, err := Dial(f.Addr(), WorkerOptions{
					Fingerprint: "bench",
					Backends: func(string) (engine.Backend, error) {
						return sleepBackend{d: 10 * time.Millisecond}, nil
					},
					Workers: 2,
					Logger:  quiet,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
			}
			waitFor(b, 5*time.Second, func() bool { return f.WorkerCount() == workers })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := engine.New(sleepBackend{d: 10 * time.Millisecond}, workers).WithDispatcher(f)
				if _, err := eng.EvaluateBatch(scaleJobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	b.Run("warm/workers=2", func(b *testing.B) {
		f, ws := benchFleet(b, calib, 2)
		defer func() {
			for _, w := range ws {
				w.Close()
			}
			f.Close()
		}()
		store := newMemStore()
		seed := engine.New(engine.NewGoldenBackend(calib.Tech, calib.Spice), 2).WithDispatcher(f).WithStore(store)
		if _, err := seed.EvaluateBatch(jobs); err != nil {
			b.Fatal(err)
		}
		shipped := f.Stats().CellsShipped
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.NewGoldenBackend(calib.Tech, calib.Spice), 2).WithDispatcher(f).WithStore(store)
			if _, err := eng.EvaluateBatch(jobs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := f.Stats().CellsShipped; got != shipped {
			b.Fatalf("warm reruns shipped %d cells, want 0", got-shipped)
		}
	})
}
