// Command optima-worker is one process of a distributed evaluation fleet:
// it calibrates (or loads) the OPTIMA model, dials a coordinator started
// with -remote on optima, optima-dnn or optima-server, and evaluates the
// (config × condition) cells the coordinator ships to it.
//
// Usage:
//
//	optima-worker -connect host:port [-workers N] [-model in.json] [-quick] [-log-level L]
//
// The worker must be calibrated identically to the coordinator — same
// -model file, or the same (default vs -quick) calibration recipe, which is
// also what a missing -model file calibrates with — or the coordinator
// rejects it in the handshake: the calibration fingerprint is
// part of every result's cache identity, and a mismatched worker would
// silently poison the coordinator's content-addressed store.
//
// -workers bounds concurrent evaluations in this process (0 = all CPUs).
// A lost coordinator is retried with backoff until interrupted, so workers
// can be started before the coordinator and survive coordinator restarts;
// a handshake rejection is fatal (retrying cannot fix a calibration
// mismatch).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"time"

	"optima/internal/cli"
	"optima/internal/engine"
	"optima/internal/obs"
	"optima/internal/remote"
)

func main() {
	connect := flag.String("connect", "", "coordinator address to dial (required), e.g. coordinator-host:9777")
	f := cli.NewFlags(flag.CommandLine, cli.Model|cli.Quick|cli.Workers|cli.LogLevel)
	flag.Parse()
	if err := run(*connect, f); err != nil {
		fmt.Fprintln(os.Stderr, "optima-worker:", err)
		os.Exit(1)
	}
}

func run(connect string, f *cli.Flags) error {
	if connect == "" {
		return fmt.Errorf("-connect is required")
	}
	if err := f.SetupLogging(); err != nil {
		return err
	}
	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The session Open would build: its fingerprint is the one a
	// coordinator opened from the same -model or recipe expects.
	ctx, err := f.Session()
	if err != nil {
		return err
	}

	opts := remote.WorkerOptions{
		Fingerprint: ctx.Fingerprint(),
		Backends: func(name string) (engine.Backend, error) {
			return engine.ByName(name, ctx.Model, ctx.Tech, ctx.Spice)
		},
		Workers:  workers,
		Logger:   slog.Default(),
		Recorder: obs.NewRecorder(obs.RecorderOptions{}),
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)

	// Reconnect loop: a refused or dropped coordinator is retried with
	// backoff (workers may start before the coordinator, and survive its
	// restarts). A handshake rejection is fatal — the coordinator named a
	// calibration or protocol mismatch that retrying cannot fix.
	backoff := time.Second
	for {
		w, err := remote.Dial(connect, opts)
		if err != nil {
			if errors.Is(err, remote.ErrRejected) {
				return err
			}
			slog.Warn("coordinator unreachable; retrying", "addr", connect, "err", err, "backoff", backoff)
			select {
			case <-interrupt:
				return nil
			case <-time.After(backoff):
			}
			if backoff < 30*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = time.Second
		slog.Info("connected to coordinator", "addr", connect, "workers", workers)
		done := make(chan struct{})
		go func() { w.Wait(); close(done) }()
		select {
		case <-interrupt:
			w.Close()
			<-done
			return nil
		case <-done:
			slog.Warn("coordinator connection lost; reconnecting", "addr", connect)
		}
	}
}
