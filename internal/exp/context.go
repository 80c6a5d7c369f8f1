// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation, each returning report artifacts (tables and
// charts) plus the measured values needed for paper-vs-measured
// comparisons. The cmd tools, the root-level benchmarks, and the
// experiment tests all call into this package so every reproduction number
// has exactly one source of truth.
package exp

import (
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/obs"
	"optima/internal/remote"
	"optima/internal/spice"
	"optima/internal/store"
)

// Context carries the calibrated OPTIMA model and the shared settings of
// an experiment session. All corner/condition evaluations of a session run
// through one evaluation engine, so figures, tables and the DSE never
// re-compute a corner another experiment already scored; with CacheDir set,
// the engine's results additionally persist across sessions.
type Context struct {
	Model *core.Model
	Tech  device.Tech
	Spice spice.Config
	// Workers bounds the engine's total worker budget — job-level fan-out ×
	// intra-job parallelism (0 = GOMAXPROCS). Set it before the first
	// evaluation.
	Workers int
	// Backend selects the evaluation backend by name —
	// engine.BackendBehavioral (default) or engine.BackendGolden. Set it
	// before the first evaluation.
	Backend string
	// CacheDir, when non-empty, backs the engine with the persistent
	// content-addressed result store (internal/store) rooted there, keyed
	// by the session's calibration fingerprint: separate runs sharing the
	// directory never re-evaluate a corner. Set it
	// before the first evaluation. A store that cannot be opened degrades
	// to the memory-only cache with a warning, never a failed run.
	CacheDir string
	// CacheMaxBytes bounds the persistent store's on-disk size: segments
	// over the budget are evicted least-recently-written first when the
	// store opens (store.Options.MaxBytes). <= 0 means unlimited.
	CacheMaxBytes int64
	// CacheMaxAge bounds the persistent store's staleness: segments older
	// than the bound are evicted when the store opens
	// (store.Options.MaxAge). <= 0 means unlimited.
	CacheMaxAge time.Duration
	// Conditions is the session's operating condition set — the cross-
	// condition evaluation plane the robust analyses (dse.RobustSweep, the
	// search's robust mode) span. The zero value means nominal only; use
	// ConditionSet to read it with that default applied. Parsed from the
	// CLIs' -conditions flag by engine.ParseConditionSet.
	Conditions engine.ConditionSet
	// CPUProfile and MemProfile, when non-empty, are file paths the session
	// writes pprof profiles to: CPU sampling runs from StartProfiling until
	// Close, the heap snapshot is taken at Close. Wired to the CLIs'
	// -cpuprofile/-memprofile flags (see profile.go).
	CPUProfile string
	MemProfile string
	// Recorder, when non-nil, is the session's telemetry sink: every
	// session engine records spans and metrics into it, the
	// persistent store wires its counters and gauges through it, and the
	// CLIs render its registry as an end-of-run summary. Set it before the
	// first evaluation. When TraceOut is set and Recorder is nil, the first
	// engine build creates one.
	Recorder *obs.Recorder
	// TraceOut, when non-empty, is a file path Close writes the session's
	// spans to as Chrome trace-format JSON (opens in Perfetto or
	// chrome://tracing). Wired to the CLIs' -trace-out flag.
	TraceOut string
	// Fleet, when non-nil, distributes evaluations across connected remote
	// workers: every engine the session builds dispatches its cache/store
	// misses to the fleet (Engine.WithDispatcher), and a fleet with no
	// workers degrades to local evaluation. Set it before the
	// first evaluation (wired to the CLIs' -remote flag); Close closes it.
	Fleet *remote.Fleet

	mu           sync.Mutex
	engines      map[string]*engine.Engine // by backend name; nil until the first build
	resultStore  *store.Store
	storeErr     error
	cpuFile      *os.File
	selection    *dse.Selection
	sweepMetrics []dse.Metrics
}

// NewContext calibrates a model with the given recipe and returns a ready
// experiment context.
func NewContext(calib core.CalibrationConfig) (*Context, error) {
	model, err := core.Calibrate(calib)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	return &Context{
		Model: model,
		Tech:  calib.Tech,
		Spice: calib.Spice,
	}, nil
}

// NewContextWithModel wraps a pre-calibrated model (e.g. loaded from JSON).
func NewContextWithModel(model *core.Model, tech device.Tech) *Context {
	return &Context{Model: model, Tech: tech, Spice: spice.DefaultConfig()}
}

// Fingerprint digests everything that determines an evaluation result
// beyond its (backend, config, condition) key: the calibrated model, the
// technology card, the solver settings, and the engine's metrics schema.
// The persistent result store is keyed on it, so results computed under a
// different calibration are never served to this session.
func (c *Context) Fingerprint() string {
	fp, err := store.Fingerprint(engine.MetricsSchema, c.Model, c.Tech, c.Spice)
	if err != nil {
		// Marshaling plain value structs cannot fail; a fingerprint bug must
		// not silently alias two calibrations.
		panic(fmt.Sprintf("exp: %v", err))
	}
	return fp
}

// Engine returns the session engine for the Backend setting,
// EngineFor(c.Backend). Backend names taken from user input must be checked
// with engine.ValidateBackendName before they reach a Context; an invalid
// name here is a programming error and panics.
func (c *Context) Engine() *engine.Engine {
	eng, err := c.EngineFor(c.Backend)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return eng
}

// EngineFor returns the session engine evaluating on the named backend (""
// means behavioral), building it on first use with the session's Workers
// bound, recorder and fleet, over the session's persistent store (results
// are keyed by backend name, so one store serves every fidelity). The
// first build of a session opens that store when CacheDir is set, and
// creates the Recorder when TraceOut is set and it is nil. The adaptive
// search uses it to pair a behavioral screen engine with a golden
// promotion engine over one cache directory. The engines share the session
// store but not a worker-budget negotiation — run them sequentially, not
// concurrently, or the combined fan-out can oversubscribe Workers.
func (c *Context) EngineFor(name string) (*engine.Engine, error) {
	if err := engine.ValidateBackendName(name); err != nil {
		return nil, err
	}
	if name == "" {
		name = engine.BackendBehavioral
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if eng, ok := c.engines[name]; ok {
		return eng, nil
	}
	if c.engines == nil {
		// The first build: what every engine of the session shares.
		c.engines = map[string]*engine.Engine{}
		if c.Recorder == nil && c.TraceOut != "" {
			c.Recorder = obs.NewRecorder(obs.RecorderOptions{})
		}
		if c.CacheDir != "" {
			st, err := store.Open(c.CacheDir, store.Options{
				Fingerprint: c.Fingerprint(),
				MaxBytes:    c.CacheMaxBytes,
				MaxAge:      c.CacheMaxAge,
				Recorder:    c.Recorder,
			})
			if err != nil {
				// Degrade to the memory-only cache but keep the cause: a
				// long-lived server must be able to report that it is
				// running without persistence (StoreError), not just log
				// once at startup.
				c.storeErr = fmt.Errorf("persistent result store disabled: %w", err)
				slog.Warn("persistent store degraded", "err", c.storeErr)
			} else {
				c.resultStore = st
			}
		}
	}
	backend, err := engine.ByName(name, c.Model, c.Tech, c.Spice)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	eng := engine.New(backend, c.Workers).WithRecorder(c.Recorder)
	if c.Fleet != nil {
		eng.WithDispatcher(c.Fleet)
	}
	if c.resultStore != nil {
		eng.WithStore(c.resultStore)
	}
	c.engines[name] = eng
	return eng, nil
}

// ConditionSet returns the session's operating condition set, defaulting to
// the single nominal condition when none was configured.
func (c *Context) ConditionSet() engine.ConditionSet {
	if c.Conditions.Len() == 0 {
		return engine.NominalConditions()
	}
	return c.Conditions
}

// Store returns the session's persistent result store, or nil when CacheDir
// is unset (or the store failed to open). Valid after the first engine is
// built.
func (c *Context) Store() *store.Store { return c.resultStore }

// StoreError reports why the session has no persistent store: non-nil when
// CacheDir was set but the store failed to open, in which case the session
// degraded to the memory-only cache. Valid after the first engine is built.
// Operators of a long-lived session see it on the server's GET /api/status.
func (c *Context) StoreError() error { return c.storeErr }

// Close finishes the session: any running CPU profile is stopped and the
// heap profile written (profile.go), the trace file is written when
// TraceOut is set, the remote fleet (if any) disconnects its workers,
// then the persistent result store, if any, is flushed and closed. Safe
// to call on a context that never evaluated anything.
func (c *Context) Close() error {
	err := c.stopProfiling()
	if terr := c.writeTrace(); err == nil {
		err = terr
	}
	if c.Fleet != nil {
		if ferr := c.Fleet.Close(); err == nil {
			err = ferr
		}
	}
	if c.resultStore != nil {
		if serr := c.resultStore.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// writeTrace exports the session's spans to TraceOut as Chrome trace-format
// JSON. Written once: a second Close is a no-op.
func (c *Context) writeTrace() error {
	if c.TraceOut == "" || c.Recorder == nil {
		return nil
	}
	path := c.TraceOut
	c.TraceOut = ""
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("exp: trace: %w", err)
	}
	werr := c.Recorder.WriteTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("exp: trace: %w", werr)
	}
	return nil
}

// Sweep returns the cached 48-corner DSE sweep, running it on first use.
func (c *Context) Sweep() ([]dse.Metrics, error) {
	if c.sweepMetrics == nil {
		mets, err := dse.SweepWith(c.Engine(), dse.DefaultGrid(), device.Nominal())
		if err != nil {
			return nil, err
		}
		c.sweepMetrics = mets
	}
	return c.sweepMetrics, nil
}

// Selection returns the cached corner selection (fom/power/variation).
func (c *Context) Selection() (dse.Selection, error) {
	if c.selection == nil {
		mets, err := c.Sweep()
		if err != nil {
			return dse.Selection{}, err
		}
		sel, err := dse.Select(mets)
		if err != nil {
			return dse.Selection{}, err
		}
		c.selection = &sel
	}
	return *c.selection, nil
}
