// Package optima is a design-space exploration framework for discharge-based
// (current-domain) in-SRAM computing, reproducing "OPTIMA: Design-Space
// Exploration of Discharge-Based In-SRAM Computing: Quantifying
// Energy-Accuracy Trade-Offs" (DAC 2024).
//
// The repository is organized as a set of substrates under internal/ (golden
// transistor-level simulation, polynomial fitting, discrete-event kernel,
// DNN inference and quantization) with the paper's behavioral models in
// internal/core and the 4-bit in-SRAM multiplier case study in internal/mult.
// All corner/condition evaluations route through the concurrent memoizing
// evaluation service in internal/engine, which the exploration layers
// (internal/dse, internal/search, internal/exp) submit jobs to — as a batch
// or as a cross-condition matrix. The
// engine's cache is tiered: in-memory, then the persistent
// content-addressed result store in internal/store (an append-only segment
// log keyed on (backend, config, condition) plus a calibration
// fingerprint; enabled with -cache-dir, bounded with Options.MaxBytes /
// MaxAge retention), then the backend.
//
// The operating condition is a first-class evaluation dimension: an
// engine.ConditionSet (ordered, validated, canonical
// "TT@1V@27C,SS@0.9V@60C" spec form — the CLIs' -conditions flag) spans
// the cross-condition axis, and engine.EvaluateMatrix scores configs ×
// conditions as one batch with every cell an independent cache key.
// dse.RobustSweep reduces the matrix to per-config worst-case / mean /
// spread summaries with arg-worst conditions (dse.RobustMetrics), and the
// search's robust mode ranks survivors by worst-case PVT excursion instead
// of nominal showing — the Fig. 8 insight made a search criterion.
//
// Two exploration layers sit on the engine. internal/dse is the paper's
// exhaustive layer: the 48-corner grid, corner selection, Pareto fronts,
// PVT robustness. internal/search is the adaptive multi-fidelity layer for
// spaces orders of magnitude larger: a validated Space (per-axis ranges
// with linear/log refinement, generalizing dse.Grid) is screened rung by
// rung on the behavioral backend with successive halving — survivors kept
// by (eps_mul, E_mul) Pareto rank and crowding distance, worst-case over
// the condition set in robust mode — and only the finalists are
// re-evaluated on the golden transient backend, at every condition of the
// set (the optima search subcommand; see examples/adaptive-search and
// examples/pvt-robustness).
// Evaluation has one seam: a Backend scores one cell
// (EvaluateCell(ev, job), where ev carries the context, the worker budget
// and the telemetry sink), and a Dispatcher runs a batch of cache misses —
// engine.Local in-process, or a remote fleet. Concurrency is two-level under
// one total worker budget: engine.Local fans jobs out across a bounded
// pool, and the golden backend additionally fans each cold corner's 176
// transients out across its granted intra-job share — with Metrics
// byte-identical at any worker split (fixed (code, bit) and sample slots,
// the 256 input pairs composed from them serially), so caching stays
// sound.
// Command-line tools under cmd/ and the benchmarks in bench_test.go
// regenerate every table and figure of the paper's evaluation.
//
// internal/server exposes the exploration stack as a long-lived service
// (the optima-server command): sessions own at most one active operation,
// submit sweep / search / condition-matrix jobs over a JSON HTTP API, and
// stream ordered progress, rung, and terminal events as Server-Sent Events
// on plain net/http, resumable from a Last-Event-ID. Every session shares
// the one exp.Context engine and store, so overlapping jobs from different
// clients dedupe per cell, cancellation (DELETE, teardown, or shutdown
// drain) abandons only unstarted work without memoizing it, and results
// reuse the search package's JSON report shapes — byte-identical to the
// optima search CLI at any worker count.
//
// internal/remote distributes the evaluation plane across processes and
// hosts (stdlib only): a coordinator plugged into the engine's batch seam
// ships batches of (backend, config, condition) cells over a CRC-framed
// binary TCP protocol to a fleet of optima-worker processes, sharded by
// the store's host-stable key hash so a worker keeps seeing the same key
// ranges. The coordinator is an engine.Dispatcher, so EvaluateBatch,
// EvaluateMatrix, the search, the CLIs, and optima-server gain
// distribution behind a -remote flag with zero changes above the engine; a calibration-fingerprint handshake refuses
// mismatched workers, dead workers' cells are reassigned exactly once,
// idle workers steal from busy ones, and an empty fleet degrades to
// local evaluation — with results byte-identical at any worker count,
// including zero.
//
// internal/obs is the cross-cutting telemetry layer (stdlib only): a
// lock-cheap ring-buffer span recorder with an injected monotonic clock
// and a metrics registry of counters, gauges, and histograms. Every layer
// instruments against one obs.Recorder — engine batches and backend
// evaluations, golden trim calibrations and their per-code transients,
// store opens/compactions and hot-path hits, search rungs, remote
// dispatches, and server job lifecycles. Each count has one home — an
// atomic the counting component owns, read both by its Stats and by the
// registry — so the two views never drift. The spans export as Chrome trace-format JSON
// (the CLIs' -trace-out flag, the server's per-job trace endpoint; opens
// in Perfetto), the metrics as Prometheus text on the server's GET
// /metrics and as the CLIs' end-of-run summary. A nil recorder disables
// everything at near-zero cost, timing never feeds results (artifacts
// stay byte-identical with telemetry on or off), and the deterministic
// packages never read the wall clock — the recorder owns the clock.
package optima
