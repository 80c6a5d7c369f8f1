// Package obs is the stdlib-only telemetry layer of the evaluation stack:
// a lock-cheap ring-buffer span recorder (Chrome trace-format export, see
// trace.go) plus a Prometheus-style metrics registry (metrics.go). Every
// layer — engine, store, search, mult's golden trim, the remote fleet, the
// server's job lifecycle — records into one Recorder handed down through
// exp.Context (engine.WithRecorder, store.Options, remote.Options), so a
// run can be opened in Perfetto or scraped at GET /metrics without any
// layer owning the other.
//
// Two properties shape the design:
//
//   - Nil-safety: every method of Recorder, Timer, Counter, Gauge,
//     Histogram and Registry is a no-op on a nil receiver. Instrumented
//     code calls unconditionally; a run without a recorder pays a nil
//     check, not a branch-forest.
//
//   - Clock injection: the deterministic packages (engine, store, search,
//     mult, exp — see internal/lint's determinism analyzer) never read the
//     wall clock. They call Recorder.Now / Timer.End, and the clock lives
//     here, injectable for tests (RecorderOptions.Clock) and monotonic by
//     default. Timing flows only into spans and metrics, never into
//     returned or persisted results — artifacts are byte-identical with
//     tracing on or off, at any worker count.
//
// # Spans
//
// A Timer opens a span (Recorder.Start / StartSpan); Timer.End records it
// into a fixed-capacity ring (overflow overwrites oldest and is counted,
// never blocks). Spans carry a parent ID so the trace is a forest: a
// server job span parents a search span, which parents rung spans, which
// parent batch spans, which parent per-cell eval spans, down to golden
// trim transients. Recorder.WriteTrace renders Chrome trace-format JSON
// that loads directly in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing; Subtree filters one job's spans for the server's
// per-job trace endpoint.
//
// # Metrics
//
// The Registry holds counters, gauges (incl. scrape-time GaugeFuncs), and
// fixed-bucket histograms, all atomics under the hood, rendered
// deterministically (families and series sorted) in Prometheus text
// exposition format 0.0.4 by WritePrometheus — the body behind
// optima-server's GET /metrics. Samples flattens the same data into the
// CLIs' end-of-run telemetry table.
//
// One home per count: a component that reports a count through its own
// Stats keeps it in an atomic it owns and attaches that atomic to a
// counter series (Registry.CounterOf) instead of bumping a second counter
// beside it. The series reads its attached atomics at scrape time and
// reports their sum plus its own Add total, so two engines on one recorder
// add up and a store reopened on the recorder continues its predecessor's
// series. Live state works the same way through GaugeFunc (sessions,
// connected workers, hub topics). Owners allocate the attached counts
// apart from their larger state, because the registry keeps them alive.
package obs
