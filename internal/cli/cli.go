// Package cli is the session setup the commands share: it declares the
// shared flags, turns their values into a calibrated exp.Context with its
// recorder, remote fleet and profiles, runs a command between opening and
// closing that session (Run), and prints the end-of-run telemetry table.
// Startup messages go through log/slog to stderr; result tables and
// `wrote …` lines stay on the commands' stdout.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"time"

	"optima/internal/core"
	"optima/internal/engine"
	"optima/internal/exp"
	"optima/internal/obs"
	"optima/internal/remote"
	"optima/internal/report"
)

// Group is a set of shared flags, combined with |. A command registers
// exactly the groups it consumes, so no flag is a silent no-op.
type Group uint

// The flag groups.
const (
	Model      Group = 1 << iota // -model
	Quick                        // -quick
	Workers                      // -workers
	Backend                      // -backend
	Cache                        // -cache-dir, -cache-max-bytes, -cache-max-age
	Conditions                   // -conditions
	Profile                      // -cpuprofile, -memprofile, -trace-out
	LogLevel                     // -log-level
	SlowEval                     // -slow-eval
	Remote                       // -remote
)

// Flags holds the shared flag values. A value whose group is not
// registered keeps its zero default (default calibration, all CPUs,
// behavioral backend, no store, nominal conditions, no profiles, info
// logging, local evaluation).
type Flags struct {
	Model         string
	Quick         bool
	Workers       int
	Backend       string
	CacheDir      string
	CacheMaxBytes int64
	CacheMaxAge   time.Duration
	Conditions    string
	CPUProfile    string
	MemProfile    string
	TraceOut      string
	LogLevel      string
	SlowEval      time.Duration
	Remote        string
}

// NewFlags registers the flags of groups on fs and returns the Flags that
// fs.Parse fills.
func NewFlags(fs *flag.FlagSet, groups Group) *Flags {
	f := new(Flags)
	if groups&Model != 0 {
		fs.StringVar(&f.Model, "model", "", "load a calibrated model instead of recalibrating (a missing file calibrates)")
	}
	if groups&Quick != 0 {
		fs.BoolVar(&f.Quick, "quick", false, "use the reduced calibration grids")
	}
	if groups&Workers != 0 {
		fs.IntVar(&f.Workers, "workers", 0,
			"total evaluation worker budget, split between job-level and intra-job parallelism (0 = all CPUs)")
	}
	if groups&Backend != 0 {
		fs.StringVar(&f.Backend, "backend", engine.BackendBehavioral,
			"evaluation backend: behavioral (fast models) or golden (transient simulation; orders of magnitude slower)")
	}
	if groups&Cache != 0 {
		fs.StringVar(&f.CacheDir, "cache-dir", "",
			"persist evaluation results in this directory (shared across runs; keyed by the calibration fingerprint)")
		fs.Int64Var(&f.CacheMaxBytes, "cache-max-bytes", 0,
			"evict least-recently-written cache segments beyond this size when the store opens (0 = unlimited)")
		fs.DurationVar(&f.CacheMaxAge, "cache-max-age", 0,
			"evict cache segments older than this when the store opens (e.g. 720h; 0 = unlimited)")
	}
	if groups&Conditions != 0 {
		fs.StringVar(&f.Conditions, "conditions", "",
			"operating condition set for cross-condition (robust) analyses: comma-separated CORNER@<vdd>V@<temp>C entries, e.g. TT@1.0V@27C,SS@0.90V@60C,FF@1.10V@0C (empty = nominal only)")
	}
	if groups&Profile != 0 {
		fs.StringVar(&f.CPUProfile, "cpuprofile", "",
			"write a pprof CPU profile of the run to this file (analyze with `go tool pprof`)")
		fs.StringVar(&f.MemProfile, "memprofile", "",
			"write a pprof heap profile to this file when the run finishes")
		fs.StringVar(&f.TraceOut, "trace-out", "",
			"write a Chrome trace-format JSON timeline of the run to this file (open in Perfetto or chrome://tracing)")
	}
	if groups&LogLevel != 0 {
		fs.StringVar(&f.LogLevel, "log-level", "info", "structured log level: debug, info, warn or error")
	}
	if groups&SlowEval != 0 {
		fs.DurationVar(&f.SlowEval, "slow-eval", 0,
			"log a warning for any single backend evaluation slower than this (e.g. 2s; 0 = off)")
	}
	if groups&Remote != 0 {
		fs.StringVar(&f.Remote, "remote", "",
			"listen on this address (e.g. :9777) for optima-worker processes and distribute evaluations across them; with no connected workers evaluation stays local")
	}
	return f
}

// SetupLogging installs the process-wide structured logger: text lines on
// stderr at the -log-level threshold (info when unset).
func (f *Flags) SetupLogging() error {
	var lvl slog.Level
	if f.LogLevel != "" {
		if err := lvl.UnmarshalText([]byte(f.LogLevel)); err != nil {
			return fmt.Errorf("bad -log-level %q: %w", f.LogLevel, err)
		}
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	return nil
}

// Session loads the -model file and returns it as a bare experiment
// session: the model with its recipe's technology card and solver
// settings, so that exp.Context.Fingerprint — the calibration identity a
// coordinator and its workers compare — is computed from the same values
// in every command. With no -model, or one naming a file that does not
// exist, it calibrates with the recipe -quick selects; a file that exists
// but does not load is an error, never a silent recalibration. Open builds
// on it; optima calibrate and optima-worker call it directly, build no
// engine on it and need not close it.
func (f *Flags) Session() (*exp.Context, error) {
	calib := core.DefaultCalibration()
	if f.Quick {
		calib = core.QuickCalibration()
	}
	model, err := f.loadModel(calib)
	if err != nil {
		return nil, err
	}
	ctx := exp.NewContextWithModel(model, calib.Tech)
	ctx.Spice = calib.Spice
	return ctx, nil
}

func (f *Flags) loadModel(calib core.CalibrationConfig) (*core.Model, error) {
	if f.Model != "" {
		m, err := core.LoadModel(f.Model)
		if err == nil {
			slog.Info("loaded model", "path", f.Model)
			return m, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		slog.Warn("model not found; calibrating", "path", f.Model)
	}
	start := time.Now()
	m, err := core.Calibrate(calib)
	if err != nil {
		return nil, err
	}
	slog.Info("calibrated", "duration", time.Since(start), "report", m.Report.String())
	return m, nil
}

// Open turns the flag values into an experiment session. It checks
// -log-level, -backend and -conditions before it reads -model, so a typo
// fails fast instead of after a calibration. It then loads or calibrates
// the model, fills the context's engine, store, condition and profile
// settings, attaches one recorder (every run records telemetry; timing
// never feeds results), listens on -remote, and starts the CPU profile.
// The caller must Close the context, which flushes the store and finishes
// the profiles. When the CPU profile cannot start, Open closes the fleet
// it listened on before it returns the error.
func (f *Flags) Open() (*exp.Context, error) {
	if err := f.SetupLogging(); err != nil {
		return nil, err
	}
	if err := engine.ValidateBackendName(f.Backend); err != nil {
		return nil, err
	}
	var conds engine.ConditionSet
	if f.Conditions != "" {
		var err error
		if conds, err = engine.ParseConditionSet(f.Conditions); err != nil {
			return nil, err
		}
	}
	ctx, err := f.Session()
	if err != nil {
		return nil, err
	}
	ctx.Workers = f.Workers
	ctx.Backend = f.Backend
	ctx.Conditions = conds
	ctx.CacheDir, ctx.CacheMaxBytes, ctx.CacheMaxAge = f.CacheDir, f.CacheMaxBytes, f.CacheMaxAge
	ctx.CPUProfile, ctx.MemProfile, ctx.TraceOut = f.CPUProfile, f.MemProfile, f.TraceOut
	ctx.Recorder = obs.NewRecorder(obs.RecorderOptions{SlowEval: f.SlowEval})
	if f.Remote != "" {
		fleet, err := remote.Listen(f.Remote, remote.Options{
			Fingerprint: ctx.Fingerprint(),
			Recorder:    ctx.Recorder,
			Logger:      slog.Default(),
		})
		if err != nil {
			return nil, fmt.Errorf("-remote: %w", err)
		}
		ctx.Fleet = fleet
		slog.Info("remote fleet listening", "addr", fleet.Addr())
	}
	if err := ctx.StartProfiling(); err != nil {
		if ctx.Fleet != nil {
			ctx.Fleet.Close()
		}
		return nil, err
	}
	return ctx, nil
}

// Run is the shape every artifact-writing command shares: it registers
// -out and the flags of groups on fs, parses args, opens the session (Open)
// and the artifact directory, runs body, and closes the session. When body
// succeeds, Close's error is Run's, so a trace or profile that cannot be
// written fails the command.
func Run(fs *flag.FlagSet, args []string, groups Group, body func(*exp.Context, *report.Output) error) (err error) {
	outDir := fs.String("out", "out", "artifact directory")
	f := NewFlags(fs, groups)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, err := f.Open()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ctx.Close(); err == nil {
			err = cerr
		}
	}()
	out, err := report.NewOutput(*outDir)
	if err != nil {
		return err
	}
	return body(ctx, out)
}

// PrintTelemetry prints the recorder's non-zero metrics as the end-of-run
// summary table, and says so when the span ring overflowed.
func PrintTelemetry(rec *obs.Recorder) {
	samples := rec.Metrics().Samples()
	if len(samples) == 0 {
		return
	}
	fmt.Println("telemetry:")
	for _, s := range samples {
		fmt.Printf("  %-55s %g\n", s.Name, s.Value)
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Printf("  (span ring overflowed: %d oldest spans overwritten)\n", d)
	}
}
