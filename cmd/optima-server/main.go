// Command optima-server is the exploration-as-a-service frontend: a
// long-lived HTTP server over the evaluation stack. Clients create
// sessions, submit sweep / adaptive-search / condition-matrix jobs as
// JSON, and follow live progress as a Server-Sent Events stream (`curl -N`
// works); all sessions share one evaluation engine and persistent store,
// so overlapping submissions from different users dedupe instead of
// re-evaluating.
//
// Usage:
//
//	optima-server [-addr :8080] [-model in.json] [-quick] [-workers N]
//	              [-backend B] [-conditions set]
//	              [-cache-dir dir] [-cache-max-bytes N] [-cache-max-age D]
//	optima-server -smoke
//
// The flags mirror the optima CLI: -backend selects the default
// evaluation backend, -conditions the server-wide operating-condition
// set (per-job overrides are accepted in the job request), -cache-dir
// roots the persistent result store shared by every session. SIGINT and
// SIGTERM drain gracefully: submissions are refused, running jobs get 30
// seconds to finish before cancellation, every open event stream ends with
// its job's terminal event, and the store is flushed.
//
// -smoke runs a self-check instead of serving: an ephemeral server on
// 127.0.0.1, one session, one small behavioral sweep job, its event
// stream followed to the terminal "done" event, then a clean shutdown.
// CI runs it to gate the serving path end to end.
//
// See the README's "optima-server" section for the endpoint table, the
// session semantics and the event-stream format.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"optima/internal/core"
	"optima/internal/engine"
	"optima/internal/exp"
	"optima/internal/obs"
	"optima/internal/remote"
	"optima/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "optima-server:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("optima-server", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	modelPath := fs.String("model", "", "load a calibrated model instead of recalibrating")
	quick := fs.Bool("quick", false, "use the reduced calibration grids")
	workers := fs.Int("workers", 0, "total evaluation worker budget (0 = all CPUs)")
	backend := fs.String("backend", engine.BackendBehavioral,
		"default evaluation backend: behavioral or golden (jobs may override)")
	conditions := fs.String("conditions", "",
		"server-wide operating condition set: comma-separated CORNER@<vdd>V@<temp>C entries (empty = nominal only)")
	cacheDir := fs.String("cache-dir", "",
		"persist evaluation results in this directory (shared by all sessions and across restarts)")
	cacheMax := fs.Int64("cache-max-bytes", 0,
		"evict least-recently-written cache segments beyond this size at startup (0 = unlimited)")
	cacheAge := fs.Duration("cache-max-age", 0,
		"evict cache segments older than this at startup (e.g. 720h; 0 = unlimited)")
	logLevel := fs.String("log-level", "info",
		"structured log level: debug, info, warn or error")
	slowEval := fs.Duration("slow-eval", 0,
		"log a warning for any single backend evaluation slower than this (e.g. 2s; 0 = off)")
	smoke := fs.Bool("smoke", false,
		"run the serving-path self-check (ephemeral port, one sweep job, event stream to done, /metrics scrape) and exit")
	smokeWorkers := fs.Int("smoke-workers", 0,
		"with -smoke: spawn this many optima-worker processes and run a matrix job through the remote fleet (requires -worker-bin)")
	workerBin := fs.String("worker-bin", "",
		"with -smoke-workers: path to the optima-worker binary to spawn")
	remoteAddr := fs.String("remote", "",
		"listen on this address (e.g. :9777) for optima-worker processes and distribute evaluations across them; with no connected workers evaluation stays local")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))

	if *smoke {
		// The smoke check pins its own fast settings; the flags above
		// configure the serving mode only (except -smoke-workers/-worker-bin,
		// which select the distributed variant).
		return runSmoke(*smokeWorkers, *workerBin)
	}

	ctx, err := makeContext(*modelPath, *quick, *workers, *backend, *conditions,
		*cacheDir, *cacheMax, *cacheAge)
	if err != nil {
		return err
	}
	// The server adopts this recorder: -slow-eval and the structured
	// logger only reach the evaluation layers through it.
	ctx.Recorder = obs.NewRecorder(obs.RecorderOptions{
		SlowEval: *slowEval,
		Logger:   slog.Default(),
	})
	if *remoteAddr != "" {
		fleet, err := remote.Listen(*remoteAddr, remote.Options{
			Fingerprint: ctx.Fingerprint(),
			Recorder:    ctx.Recorder,
			Logger:      slog.Default(),
		})
		if err != nil {
			return fmt.Errorf("-remote: %w", err)
		}
		ctx.Fleet = fleet
		slog.Info("remote fleet listening", "addr", fleet.Addr())
	}
	srv := server.New(ctx)
	// Build the engine (and open the store) before accepting traffic, so
	// a bad cache directory is reported at startup, not on the first job.
	ctx.Engine()
	if err := ctx.StoreError(); err != nil {
		slog.Warn("persistent store degraded", "err", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	slog.Info("serving", "addr", ln.Addr().String(),
		"backend", ctx.Engine().Backend().Name(), "workers", ctx.Engine().Workers())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		slog.Info("draining: running jobs get 30s", "signal", s.String())
	}
	return shutdown(httpSrv, srv, 30*time.Second)
}

// HTTP server timeouts. There is deliberately no WriteTimeout: it bounds a
// whole response, and an event stream lasts as long as its job.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// shutdown drains the HTTP layer, then the jobs, under one deadline. Event
// streams are in-flight requests, so the HTTP drain waits for them, and
// each ends with its job's terminal event. Server.Shutdown cancels the jobs
// still running at the deadline; a last short HTTP drain then lets their
// streams deliver the "canceled" event before the process exits.
func shutdown(httpSrv *http.Server, srv *server.Server, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		slog.Warn("http drain incomplete; cancelling jobs", "err", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	flushCtx, cancelFlush := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelFlush()
	return httpSrv.Shutdown(flushCtx)
}

// makeContext mirrors the optima CLI's context construction.
func makeContext(modelPath string, quick bool, workers int, backend, conditions, cacheDir string, cacheMax int64, cacheAge time.Duration) (*exp.Context, error) {
	if err := engine.ValidateBackendName(backend); err != nil {
		return nil, err
	}
	var conds engine.ConditionSet
	if conditions != "" {
		var err error
		if conds, err = engine.ParseConditionSet(conditions); err != nil {
			return nil, err
		}
	}
	calib := core.DefaultCalibration()
	if quick {
		calib = core.QuickCalibration()
	}
	var ctx *exp.Context
	if modelPath != "" {
		if m, err := core.LoadModel(modelPath); err == nil {
			slog.Info("loaded model", "path", modelPath)
			ctx = exp.NewContextWithModel(m, calib.Tech)
		} else {
			slog.Warn("model not found; calibrating", "path", modelPath)
		}
	}
	if ctx == nil {
		start := time.Now()
		var err error
		ctx, err = exp.NewContext(calib)
		if err != nil {
			return nil, err
		}
		slog.Info("calibrated", "duration", time.Since(start), "report", ctx.Model.Report.String())
	}
	ctx.Backend = backend
	ctx.Conditions = conds
	ctx.Workers = workers
	ctx.CacheDir = cacheDir
	ctx.CacheMaxBytes = cacheMax
	ctx.CacheMaxAge = cacheAge
	return ctx, nil
}

// runSmoke gates the serving path end to end: ephemeral listener, one
// session, one small behavioral job, its event stream followed to the
// terminal event, graceful shutdown. Any deviation is a non-zero exit.
//
// With workersN > 0 it gates the distributed path instead: a remote fleet
// on an ephemeral port, workersN spawned optima-worker processes, and a
// cross-condition matrix job whose cells must flow through the fleet.
func runSmoke(workersN int, workerBin string) error {
	ctx, err := exp.NewContext(core.QuickCalibration())
	if err != nil {
		return err
	}
	srv := server.New(ctx)

	var fleet *remote.Fleet
	if workersN > 0 {
		if workerBin == "" {
			return fmt.Errorf("-smoke-workers requires -worker-bin")
		}
		// server.New installed the recorder; the fleet's counters land in
		// the same registry /metrics serves.
		fleet, err = remote.Listen("127.0.0.1:0", remote.Options{
			Fingerprint: ctx.Fingerprint(),
			Recorder:    ctx.Recorder,
			Logger:      slog.Default(),
		})
		if err != nil {
			return err
		}
		ctx.Fleet = fleet
		var cmds []*exec.Cmd
		defer func() {
			for _, c := range cmds {
				c.Process.Kill()
				c.Wait()
			}
		}()
		for i := 0; i < workersN; i++ {
			cmd := exec.Command(workerBin, "-connect", fleet.Addr(), "-quick", "-workers", "2")
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("start worker %d: %w", i, err)
			}
			cmds = append(cmds, cmd)
		}
		// Workers calibrate (quick grids) before dialing; wait for the full
		// fleet so the matrix job genuinely exercises distribution.
		joinDeadline := time.Now().Add(2 * time.Minute)
		for fleet.WorkerCount() < workersN {
			if time.Now().After(joinDeadline) {
				return fmt.Errorf("only %d/%d workers joined within 2m", fleet.WorkerCount(), workersN)
			}
			time.Sleep(100 * time.Millisecond)
		}
		fmt.Printf("optima-server: %d workers joined the fleet on %s\n", workersN, fleet.Addr())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv.Handler())
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("optima-server: smoke on %s\n", base)

	// Session.
	var sess struct {
		ID string `json:"id"`
	}
	if err := postJSON(base+"/api/sessions", nil, &sess); err != nil {
		return fmt.Errorf("create session: %w", err)
	}

	// A small behavioral sweep: 4 × 2 × 2 corners at the nominal condition.
	// The distributed variant runs the same grid as a two-condition matrix,
	// so the cells fan out across the worker fleet.
	req := map[string]any{
		"kind":   "sweep",
		"tau0":   "0.16:0.28:4",
		"vdac0":  "0.3,0.4",
		"vdacfs": "0.8,1.0",
	}
	if fleet != nil {
		req["kind"] = "matrix"
		req["conditions"] = "TT@1.0V@27C,SS@0.90V@60C"
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := postJSON(base+"/api/sessions/"+sess.ID+"/jobs", req, &job); err != nil {
		return fmt.Errorf("submit %s: %w", req["kind"], err)
	}

	// Follow the stream to the terminal event.
	followCtx, cancelFollow := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelFollow()
	events, err := server.FollowEvents(followCtx, base+"/api/sessions/"+sess.ID+"/jobs/"+job.ID+"/events")
	if err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	for _, ev := range events {
		data, _ := json.Marshal(ev) // a plain value struct: cannot fail
		fmt.Printf("optima-server: event %s\n", data)
	}
	if last := events[len(events)-1]; last.Type != server.EventDone {
		return fmt.Errorf("job ended %s (%s), want done", last.Type, last.Error)
	}

	// The job record must agree and carry the result.
	var st server.JobStatus
	if err := getJSON(base+"/api/sessions/"+sess.ID+"/jobs/"+job.ID, &st); err != nil {
		return err
	}
	if st.State != server.JobDone || len(st.Result) == 0 {
		return fmt.Errorf("job state %s with %d result bytes, want done with a result", st.State, len(st.Result))
	}
	resultCount := 0
	if fleet != nil {
		var res server.MatrixResult
		if err := json.Unmarshal(st.Result, &res); err != nil {
			return err
		}
		if resultCount = len(res.Robust); resultCount == 0 {
			return fmt.Errorf("matrix returned no robust summaries")
		}
		// The point of the variant: the cells must have crossed the wire.
		fs := fleet.Stats()
		if fs.CellsShipped == 0 || fs.Results == 0 {
			return fmt.Errorf("fleet shipped %d cells and accepted %d results, want > 0 (stats: %v)",
				fs.CellsShipped, fs.Results, fs)
		}
		fmt.Printf("optima-server: fleet %v\n", fs)
	} else {
		var res server.SweepResult
		if err := json.Unmarshal(st.Result, &res); err != nil {
			return err
		}
		if resultCount = len(res.Points); resultCount == 0 {
			return fmt.Errorf("sweep returned no points")
		}
	}

	// The telemetry surface: /metrics must serve well-formed Prometheus
	// text with live evaluation counters, and the job's trace endpoint
	// must serve a non-empty Chrome trace.
	if err := checkMetrics(base + "/metrics"); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if err := checkTrace(base + "/api/sessions/" + sess.ID + "/jobs/" + job.ID + "/trace"); err != nil {
		return fmt.Errorf("trace: %w", err)
	}

	if err := shutdown(httpSrv, srv, 10*time.Second); err != nil {
		return err
	}
	fmt.Printf("optima-server: smoke ok (%d %s results)\n", resultCount, req["kind"])
	return nil
}

// expositionLine matches one well-formed Prometheus text line: a comment
// (HELP/TYPE) or a `name{labels} value` sample.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+)$`)

// checkMetrics scrapes url and fails on malformed exposition text or a
// zero behavioral-evaluation counter — a smoke run just evaluated a sweep,
// so a zero counter means the instruments are not wired.
func checkMetrics(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("content type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	evals := -1.0
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			return fmt.Errorf("malformed exposition line %q", line)
		}
		if name, val, ok := strings.Cut(line, " "); ok && name == `optima_evals_total{backend="behavioral"}` {
			if evals, err = strconv.ParseFloat(val, 64); err != nil {
				return fmt.Errorf("bad counter value %q: %w", val, err)
			}
		}
	}
	if evals <= 0 {
		return fmt.Errorf("optima_evals_total{backend=\"behavioral\"} is %v after a sweep, want > 0", evals)
	}
	fmt.Printf("optima-server: metrics ok (%d bytes, %g behavioral evals)\n", len(body), evals)
	return nil
}

// checkTrace fetches a finished job's trace and fails unless it is valid
// Chrome trace-format JSON with at least one event (the job span).
func checkTrace(url string) error {
	var parsed struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := getJSON(url, &parsed); err != nil {
		return err
	}
	if len(parsed.TraceEvents) == 0 {
		return fmt.Errorf("trace has no events; the job span never reached the recorder")
	}
	fmt.Printf("optima-server: trace ok (%d events)\n", len(parsed.TraceEvents))
	return nil
}

// postJSON posts body as JSON (a nil body posts "null") and decodes the
// reply into out.
func postJSON(url string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	return decodeReply(resp, err, out)
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	return decodeReply(resp, err, out)
}

// decodeReply decodes a JSON reply into out. A failed request or a non-2xx
// status is an error, carrying the server's error message.
func decodeReply(resp *http.Response, err error, out any) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL, resp.Status, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
