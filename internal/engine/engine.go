// Package engine is the unified concurrent evaluation service of the
// reproduction: every corner/condition evaluation — the paper's 48-corner
// design-space sweep, the PVT robustness sweeps, and the figure/table
// regenerations that revisit the same configurations — is submitted here
// instead of rolling its own concurrency.
//
// The engine separates *evaluation* from *exploration* (the compiler-style
// split of OpenACM): exploration layers (internal/dse, internal/exp) decide
// which (config, condition) jobs to run; the engine decides how — a bounded
// worker pool with deterministic result ordering, a tiered content-addressed
// result cache keyed on (backend, config, condition), and a pluggable
// Backend so the same sweep can run against the fast behavioral models or
// the golden transient solver (or both, for comparison mode).
//
// The cache has up to three tiers: the in-memory map (always on), an
// optional persistent Store (internal/store — survives the process, shared
// across runs and CI jobs), and the backend itself. Lookups fall through
// memory → store → backend; results computed by the backend are written
// back to the store, in groups on the batched submission path.
//
// # One evaluation seam
//
// A backend answers one question — score one (config, condition) cell —
// through Backend.EvaluateCell, which receives an Eval: the submission's
// context, its worker budget, and its telemetry sink. A submission's cache
// misses reach backends through exactly one batch seam, a Dispatcher:
// Local (the default) runs them in this process, and internal/remote's
// Fleet (attached with WithDispatcher) ships them to worker processes.
// The engine's claim bookkeeping sits on the caller side of that seam, so
// its exactly-once guards, cancellation and persistence rules are the same
// for both.
//
// The engine's worker bound is a total budget spent on two levels. Local
// fans distinct jobs out across a bounded pool and grants each cell a
// share of the budget as ev.Workers, which the golden backend spends
// inside the cell (its 176 transients — trim calibration, the 16×4
// (code, bit) table the 16×16 input space composes from, and the
// Monte-Carlo sigma samples). For a batch of n runnable
// jobs each cell gets total/min(total, n) workers, so job-level × intra-job
// concurrency never oversubscribes the budget: a 48-corner sweep spends
// everything on job fan-out, while a single golden corner spends
// everything inside the corner.
//
// Determinism is preserved at both levels: results come back in job order
// regardless of worker counts, and intra-job workers fill fixed
// per-transient slots that reduce serially in input order — Metrics are
// byte-identical at any budget, which is what makes the content-addressed
// cache (and the persistent store) sound.
//
// # Telemetry
//
// An engine reports to at most one recorder, attached with WithRecorder:
// every submission's batch, store-lookup and eval spans go there, parented
// on BatchOptions.ParentSpan, and there is no per-submission override. The
// cache accounting that Stats reports (memory and store hits, evaluations,
// failed store writes) lives in one place, a small counts struct of
// atomics; WithRecorder attaches it to the recorder's registry, so Stats
// and /metrics read the same numbers.
//
// # Condition plane
//
// The operating condition is a first-class evaluation dimension, not a
// per-call scalar: a ConditionSet (named, ordered, duplicate-free, with a
// canonical "TT@1V@27C,SS@0.9V@60C" spec form) spans the cross-condition
// axis, and EvaluateMatrix(configs × conditions) submits the whole plane as
// one batch, returning a Matrix indexed [config][condition]. The set never
// changes keying — each (config, condition) cell remains an independent
// cache/store key — so every cache tier serves partial overlaps between
// matrices, sweeps and single evaluations unchanged. The exploration
// layers' robust analyses (dse.RobustSweep, the search's robust mode) are
// reductions over this plane.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"optima/internal/device"
	"optima/internal/mult"
	"optima/internal/obs"
)

// MetricsSchema versions the semantic content of Metrics. It participates
// in the persistent store's fingerprint, so bumping it invalidates every
// previously persisted result. Bump it whenever the meaning or computation
// of any Metrics field changes.
//
// Schema 2: the golden backend's Monte-Carlo σ estimate switched from one
// sequential RNG stream across samples to one deterministic stream per
// sample (required for schedule-independent intra-job parallelism), which
// changes golden SigmaMax values.
const MetricsSchema = 2

// Job is one unit of evaluation work: score a multiplier configuration at
// an operating condition over the full input space.
type Job struct {
	Config mult.Config
	Cond   device.PVT
}

// Key content-addresses one evaluation result: the backend identity plus
// the job. Config and PVT are flat value structs, so Key is comparable and
// two jobs collide exactly when they would produce the same result.
type Key struct {
	Backend string
	Job
}

// CacheEntry pairs a key with its metrics — the unit a Store persists.
type CacheEntry struct {
	Key Key
	Met Metrics
}

// Store is the optional persistent tier of the result cache. Implementations
// must be safe for concurrent use. Get misses are cheap (in-memory index);
// PutBatch appends a group of freshly computed results durably. The
// canonical implementation is internal/store; the interface stays here so a
// future key-range-sharded or remote store drops in without touching the
// exploration layers.
type Store interface {
	Get(Key) (Metrics, bool)
	PutBatch([]CacheEntry) error
}

// Stats reports the engine's cache accounting. The JSON tags make a
// snapshot (or a Sub delta) directly reportable over an API — per-job
// evaluated / cache-hit / store-hit counts without string-parsing String.
type Stats struct {
	// Hits counts evaluations served from the in-memory tier (including
	// waits on an in-flight computation of the same key).
	Hits uint64 `json:"cache_hits"`
	// DiskHits counts evaluations served from the persistent store tier.
	DiskHits uint64 `json:"store_hits"`
	// Misses counts evaluations that ran the backend.
	Misses uint64 `json:"evaluated"`
	// StoreErrors counts failed persistence attempts (the result is still
	// returned and cached in memory; the store write is best-effort).
	StoreErrors uint64 `json:"store_errors"`
	// Entries is the number of distinct results held in memory.
	Entries int `json:"entries"`
}

// String renders the accounting for log lines. The store clauses appear
// independently: store errors without disk hits report only the errors, not
// a spurious "0 store hits".
func (s Stats) String() string {
	out := fmt.Sprintf("%d evaluated, %d cache hits, %d entries", s.Misses, s.Hits, s.Entries)
	if s.DiskHits > 0 {
		out += fmt.Sprintf(", %d store hits", s.DiskHits)
	}
	if s.StoreErrors > 0 {
		out += fmt.Sprintf(", %d store errors", s.StoreErrors)
	}
	return out
}

// Sub returns the counter deltas s − prev (Entries carries over from s).
// Exploration layers use it to attribute engine activity to one phase — the
// adaptive search records a Stats delta per rung, which is how its Trace
// separates fresh backend evaluations from cache and store hits.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:        s.Hits - prev.Hits,
		DiskHits:    s.DiskHits - prev.DiskHits,
		Misses:      s.Misses - prev.Misses,
		StoreErrors: s.StoreErrors - prev.StoreErrors,
		Entries:     s.Entries,
	}
}

// entry is one cache slot. done is closed when met/err are valid, so
// concurrent submitters of the same key wait instead of recomputing.
type entry struct {
	done chan struct{}
	met  Metrics
	err  error
}

// counts is the engine's cache accounting, the one home of each count:
// Stats reads it, and WithRecorder attaches it to the recorder's registry.
// It is allocated apart from the Engine so that a registry holding it never
// keeps the engine's cache alive.
type counts struct {
	hits, diskHits, misses, storeErrs atomic.Uint64
}

// engineMetrics holds the engine's timing instruments. The zero value — no
// recorder attached — is fully inert: every handle is nil, and every obs
// method no-ops on a nil receiver, so the instrumented paths never branch
// on "is telemetry on".
type engineMetrics struct {
	evalDur   *obs.Histogram
	queueWait *obs.Histogram
	busy      *obs.Gauge
}

// Engine is a memoizing concurrent evaluation service over one backend.
// All methods are safe for concurrent use.
type Engine struct {
	backend    Backend
	dispatcher Dispatcher
	workers    int
	store      Store // nil = memory-only cache

	n *counts

	mu    sync.Mutex
	cache map[Key]*entry
	rec   *obs.Recorder
	em    engineMetrics
}

// New returns an engine over the given backend, dispatching locally.
// workers is the total worker budget of one submission; workers <= 0 uses
// GOMAXPROCS.
func New(backend Backend, workers int) *Engine {
	return &Engine{backend: backend, dispatcher: Local{}, workers: workers, n: &counts{}, cache: map[Key]*entry{}}
}

// WithDispatcher replaces the Local dispatcher that runs a submission's
// cache misses — with a *remote.Fleet, say — and returns the engine (for
// chaining). Keys and results do not depend on the dispatcher. Call before
// the first evaluation.
func (e *Engine) WithDispatcher(d Dispatcher) *Engine {
	e.mu.Lock()
	e.dispatcher = d
	e.mu.Unlock()
	return e
}

// WithStore attaches a persistent store tier and returns the engine (for
// chaining). Call before the first evaluation; results computed earlier are
// not back-filled.
func (e *Engine) WithStore(s Store) *Engine {
	e.mu.Lock()
	e.store = s
	e.mu.Unlock()
	return e
}

// WithRecorder attaches a telemetry recorder and returns the engine (for
// chaining, like WithStore): spans for every backend evaluation and batch,
// eval-duration / queue-wait / busy metrics, and the engine's own counts
// (the cache-tier hits, evaluations and store errors Stats reports)
// attached to the recorder's registry. Every submission reports to this
// one recorder. Timing data never flows into results — Metrics (and
// therefore everything cached or persisted) are byte-identical with or
// without a recorder, at any worker count.
func (e *Engine) WithRecorder(rec *obs.Recorder) *Engine {
	var em engineMetrics
	if reg := rec.Metrics(); reg != nil {
		const hitsHelp = "evaluations served from a cache tier"
		backend := e.backend.Name()
		reg.CounterOf("optima_cache_hits_total", hitsHelp, &e.n.hits, "tier", "memory")
		reg.CounterOf("optima_cache_hits_total", hitsHelp, &e.n.diskHits, "tier", "store")
		reg.CounterOf("optima_evals_total", "backend evaluations run", &e.n.misses, "backend", backend)
		reg.CounterOf("optima_store_errors_total", "failed best-effort store writes", &e.n.storeErrs)
		em = engineMetrics{
			evalDur:   reg.Histogram("optima_eval_duration_seconds", "backend evaluation wall time", nil, "backend", backend),
			queueWait: reg.Histogram("optima_queue_wait_seconds", "delay between batch submission and a cell starting on the backend", nil),
			busy:      reg.Gauge("optima_workers_busy", "evaluations currently running on the backend"),
		}
	}
	e.mu.Lock()
	e.rec, e.em = rec, em
	e.mu.Unlock()
	return e
}

// Backend returns the engine's backend.
func (e *Engine) Backend() Backend { return e.backend }

// Workers returns the engine's total worker budget: the bound on job-level
// × intra-job concurrency across one submission.
func (e *Engine) Workers() int {
	if e.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// Stats returns a snapshot of the cache accounting.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	entries := len(e.cache)
	e.mu.Unlock()
	return Stats{
		Hits: e.n.hits.Load(), DiskHits: e.n.diskHits.Load(), Misses: e.n.misses.Load(),
		StoreErrors: e.n.storeErrs.Load(), Entries: entries,
	}
}

// storeResolve consults the persistent tier for a claimed key and, on a
// hit, resolves the entry with the stored metrics. It reports whether the
// entry was resolved — including the case where the Store implementation
// panicked, which resolves the claim with an error instead of stranding it:
// a Store is arbitrary code, and a panic between taking a claim and closing
// its done channel would leave every concurrent waiter blocked forever (the
// PR 3 stuck-waiter class, now machine-checked by optimalint/claimsafety).
func (e *Engine) storeResolve(store Store, key Key, ent *entry) (resolved bool) {
	defer func() {
		if r := recover(); r != nil {
			ent.err = fmt.Errorf("engine: store lookup panicked for corner %v at %v: %v", key.Config, key.Cond, r)
			close(ent.done)
			resolved = true
		}
	}()
	met, ok := store.Get(key)
	if !ok {
		return false
	}
	ent.met = met
	close(ent.done)
	return true
}

// persist writes freshly computed results to the store tier, best-effort:
// a failing store never fails an evaluation, it only loses cache warmth.
func (e *Engine) persist(store Store, batch []CacheEntry) {
	if len(batch) == 0 {
		return
	}
	if err := store.PutBatch(batch); err != nil {
		e.n.storeErrs.Add(1)
	}
}

// BatchOptions configures one batched submission beyond its job list. The
// zero value reproduces plain EvaluateBatch: background context, no
// progress reporting.
type BatchOptions struct {
	// Ctx, when non-nil, cancels the submission: jobs that have not started
	// when the context is done are abandoned — their claims are released
	// from the cache (a cancellation is never memoized) — and the batch
	// returns the context's error. Evaluations already running on the
	// backend complete normally and their results are cached and persisted,
	// so a canceled sweep's finished work stays warm for a rerun.
	Ctx context.Context
	// OnProgress, when non-nil, is called as the batch's cells resolve, with
	// the resolved count so far and the batch size. Cells this batch does
	// not compute itself (memory or store tier, duplicates, keys claimed by
	// a concurrent submission) are reported resolved up front; each backend
	// completion then advances the count by one. Calls are serialized and
	// done is monotone, but they arrive from worker goroutines — keep the
	// callback fast and do not submit engine work from it.
	OnProgress func(done, total int)
	// ParentSpan parents the submission's batch span (0 = root) in the
	// engine's recorder (WithRecorder) — a server job span, a search rung
	// span.
	ParentSpan obs.SpanID
}

// EvaluateBatch is the batched submission path: it claims every distinct
// missing key of the batch in one pass (amortizing per-job lock traffic),
// consults the store tier once per key, fans the remaining evaluations out
// on the shared scheduler (internal/sched), and persists the newly computed
// results in a single group write. Results come back in job order —
// independent of the worker count — and duplicate jobs within the batch
// share one evaluation. The first failing job (by index) determines the
// returned error; the batch still runs to completion so every claimed key
// ends up resolved. A one-job batch is the single-evaluation path: it gets
// the whole worker budget. Errors are cached in memory (not persisted):
// backends are deterministic, so a failing corner fails the same way every
// time within a process.
func (e *Engine) EvaluateBatch(jobs []Job) ([]Metrics, error) {
	return e.EvaluateBatchOpts(jobs, BatchOptions{})
}

// abandon resolves a claimed entry without evaluating it — the submission
// was canceled before the job started. The claim is released from the
// cache so the cancellation is not memoized: a later submission of the key
// claims it afresh and evaluates normally. Waiters already holding the
// entry observe the cancellation error.
func (e *Engine) abandon(key Key, ent *entry, cause error) {
	e.mu.Lock()
	if e.cache[key] == ent {
		delete(e.cache, key)
	}
	e.mu.Unlock()
	ent.err = cause
	close(ent.done)
}

// observed wraps the engine's backend for one submission: every cell a
// dispatcher runs in this process gets an eval span under the batch span,
// the busy gauge, and the duration and queue-wait histograms. Cells a
// remote dispatcher ships elsewhere never reach it.
type observed struct {
	Backend
	em    engineMetrics
	start time.Duration // submission time on the recorder's clock
}

func (o observed) EvaluateCell(ev Eval, job Job) (Metrics, error) {
	o.em.queueWait.Observe((ev.Rec.Now() - o.start).Seconds())
	var arg string
	if ev.Rec != nil {
		arg = fmt.Sprintf("%v @ %v", job.Config, job.Cond)
	}
	span := ev.Rec.StartSpan(ev.Parent, obs.CatEval, o.Name(), arg)
	o.em.busy.Add(1)
	defer func() {
		o.em.busy.Add(-1)
		o.em.evalDur.Observe(span.End().Seconds())
	}()
	ev.Parent = span.ID()
	return o.Backend.EvaluateCell(ev, job)
}

// dispatch resolves a batch's claimed miss set through the engine's
// dispatcher. Every claim resolves on every path: a cancellation error
// abandons the claim (never memoized), any other result closes it, and the
// deferred sweep catches a dispatcher that panicked or violated the
// exactly-once contract — unresolved claims are abandoned with an error
// instead of stranding concurrent waiters (the PR 3 stuck-waiter class).
func (e *Engine) dispatch(d Dispatcher, ev Eval, backend Backend, toRun []Key, owned map[Key]*entry, advance func(int)) {
	jobs := make([]Job, len(toRun))
	for i, key := range toRun {
		jobs[i] = key.Job
	}
	// resolved guards the exactly-once contract on this side of the seam: a
	// duplicate onDone for an index is dropped, and the deferred sweep
	// claims any index the dispatcher never reported.
	resolved := make([]atomic.Bool, len(toRun))
	defer func() {
		r := recover()
		for i, key := range toRun {
			if !resolved[i].CompareAndSwap(false, true) {
				continue
			}
			cause := fmt.Errorf("engine: dispatcher never resolved %s corner %v at %v", key.Backend, key.Config, key.Cond)
			if r != nil {
				cause = fmt.Errorf("engine: dispatcher panicked: %v", r)
			}
			e.abandon(key, owned[key], cause)
			advance(1)
		}
	}()
	d.EvaluateJobs(ev, backend, jobs, func(i int, met Metrics, err error) {
		if i < 0 || i >= len(toRun) || !resolved[i].CompareAndSwap(false, true) {
			return
		}
		key := toRun[i]
		ent := owned[key]
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			e.abandon(key, ent, err)
		} else {
			// Only jobs that reached the backend are misses — abandoned jobs
			// were neither served nor evaluated.
			e.n.misses.Add(1)
			ent.met, ent.err = met, err
			close(ent.done)
		}
		advance(1)
	})
}

// EvaluateBatchOpts is EvaluateBatch with a cancellation context and a
// per-cell progress callback (BatchOptions). It is the submission path of
// the exploration layers that must stay interruptible and observable — the
// adaptive search's rungs and the optima-server's jobs.
func (e *Engine) EvaluateBatchOpts(jobs []Job, opts BatchOptions) ([]Metrics, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	ctx := Eval{Ctx: opts.Ctx}.Context()
	if err := ctx.Err(); err != nil {
		return nil, err // canceled before anything was claimed
	}
	e.mu.Lock()
	rec, em := e.rec, e.em
	e.mu.Unlock()
	var batchArg string
	if rec != nil {
		batchArg = fmt.Sprintf("%d jobs", len(jobs))
	}
	bspan := rec.StartSpan(opts.ParentSpan, obs.CatBatch, "evaluate-batch", batchArg)
	defer bspan.End()
	batchStart := rec.Now()
	var progMu sync.Mutex
	resolved := 0
	advance := func(n int) {
		if opts.OnProgress == nil || n == 0 {
			return
		}
		progMu.Lock()
		resolved += n
		opts.OnProgress(resolved, len(jobs))
		progMu.Unlock()
	}
	bname := e.backend.Name()

	// Phase 1: one locked pass claims every key this batch will compute and
	// resolves the rest against the memory tier.
	ents := make([]*entry, len(jobs))
	owned := make(map[Key]*entry)
	var ownedKeys []Key
	var memHits uint64
	e.mu.Lock()
	store, dispatcher := e.store, e.dispatcher
	for i, j := range jobs {
		key := Key{Backend: bname, Job: j}
		if ent, ok := e.cache[key]; ok {
			// Cached, in flight elsewhere, or a duplicate earlier in this
			// batch — all share the entry.
			memHits++
			ents[i] = ent
			continue
		}
		ent := &entry{done: make(chan struct{})}
		e.cache[key] = ent
		owned[key] = ent
		ownedKeys = append(ownedKeys, key)
		ents[i] = ent
	}
	e.mu.Unlock()
	e.n.hits.Add(memHits)

	// Phase 2: store tier. The index lookup is memory-speed, so this stays
	// serial; only true misses proceed to the backend. A cancellation here
	// stops the lookups — the remaining keys fall through to phase 3, which
	// abandons them.
	toRun := ownedKeys
	if store != nil && len(ownedKeys) > 0 {
		var lookupArg string
		if rec != nil {
			lookupArg = fmt.Sprintf("%d keys", len(ownedKeys))
		}
		lookup := rec.StartSpan(bspan.ID(), obs.CatStore, "lookup", lookupArg)
		toRun = toRun[:0]
		var fromDisk uint64
		for n, key := range ownedKeys {
			if ctx.Err() != nil {
				toRun = append(toRun, ownedKeys[n:]...)
				break
			}
			if ent := owned[key]; e.storeResolve(store, key, ent) {
				if ent.err == nil {
					fromDisk++
				}
				continue
			}
			toRun = append(toRun, key)
		}
		lookup.End()
		e.n.diskHits.Add(fromDisk)
	}
	// Everything the batch does not compute itself — memory and store hits,
	// duplicates, keys in flight under a concurrent submission — is resolved
	// from this batch's point of view.
	advance(len(jobs) - len(toRun))

	// Phase 3: the dispatcher evaluates the remaining keys. Every entry is
	// resolved (results and errors both — panics and cancellations
	// included), so concurrent waiters never hang.
	if len(toRun) > 0 {
		ev := Eval{Ctx: ctx, Workers: e.Workers(), Rec: rec, Parent: bspan.ID()}
		e.dispatch(dispatcher, ev, observed{Backend: e.backend, em: em, start: batchStart}, toRun, owned, advance)
		// Phase 4: persist the new results in one group. Abandoned entries
		// carry the cancellation error and are skipped, so a canceled batch
		// persists exactly the work it finished.
		if store != nil {
			batch := make([]CacheEntry, 0, len(toRun))
			for _, key := range toRun {
				if ent := owned[key]; ent.err == nil {
					batch = append(batch, CacheEntry{Key: key, Met: ent.met})
				}
			}
			e.persist(store, batch)
		}
	}

	// Assemble in job order; first error (by index) wins.
	results := make([]Metrics, len(jobs))
	for i, ent := range ents {
		<-ent.done
		if ent.err != nil {
			// The condition is part of the failure's identity: a PVT sweep
			// fails at one excursion point, and the caller needs to know which.
			return nil, fmt.Errorf("engine: %s corner %v at %v: %w", bname, jobs[i].Config, jobs[i].Cond, ent.err)
		}
		results[i] = ent.met
	}
	return results, nil
}

// Jobs expands a configuration list at one condition.
func Jobs(cfgs []mult.Config, cond device.PVT) []Job {
	jobs := make([]Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = Job{Config: cfg, Cond: cond}
	}
	return jobs
}
