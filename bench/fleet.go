package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/exp"
	"optima/internal/obs"
	"optima/internal/remote"
	"optima/internal/search"
	"optima/internal/server"
	"optima/internal/stats"
)

// fleetConditions is the condition set of matrix and search jobs; a sweep
// job picks one of them.
const fleetConditions = "TT@1V@27C,SS@0.9V@60C,FF@1.1V@0C"

// fleetWorkers is the number of remote workers; together they hold one
// evaluation slot per CPU. It is 1 because with two or more workers the
// coordinator can return from a dispatch while another worker's result is
// still being handed to the engine, which then fails that cell ("batch
// backend never resolved corner"); one worker's results arrive on one
// connection, in order.
const fleetWorkers = 1

// The job lattice: every axis value a job may name. Jobs pick a few values
// per axis, so they share cells with one another without repeating whole
// jobs, and the cells a run can touch (61 × 17 × 25 × 3) outnumber what one
// run evaluates: the engine sees misses until the end.
var (
	tauLattice    = lattice(0.160, 0.002, 61)
	vdac0Lattice  = lattice(0.300, 0.0125, 17)
	vdacfsLattice = lattice(0.700, 0.0125, 25)
)

func lattice(lo, step float64, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strconv.FormatFloat(math.Round((lo+float64(i)*step)*1e4)/1e4, 'f', -1, 64)
	}
	return out
}

// Job mix: the share of sweep and matrix jobs (the rest are searches), and
// the share of jobs that repeat the pooled spec of their kind. The pool
// exists for the same-spec check, and sharePool is an assumption sized for
// it, not measured traffic: at ≈150 jobs/s on 2 CPUs it repeats each pooled
// spec 20–60 times in a 15 s run. A traced run reports the share of jobs
// whose spec ran before (server.repeat_share), lattice overlaps included.
const (
	shareSweep  = 0.5
	shareMatrix = 0.3
	sharePool   = 0.05
)

// jobGen draws one client's jobs from the workload seed.
type jobGen struct {
	rng  *stats.RNG
	pool []server.JobRequest
}

// jobPool is the seed's pool of repeated specs, one per kind in kind order
// (sweep, matrix, search): every client repeats them, so identical specs
// run across sessions. Pooled specs have one fixed size, so the seed moves
// which cells they name but not how many.
func jobPool(seed uint64) []server.JobRequest {
	rng := stats.NewRNG(deriveSeed(seed, -1))
	var pool []server.JobRequest
	for _, kind := range []string{server.KindSweep, server.KindMatrix, server.KindSearch} {
		pool = append(pool, randomJob(rng, kind, true))
	}
	return pool
}

func newJobGen(seed uint64, client int) *jobGen {
	return &jobGen{rng: stats.NewRNG(deriveSeed(seed, client)), pool: jobPool(seed)}
}

func (g *jobGen) next() server.JobRequest {
	kind := server.KindSearch
	switch u := g.rng.Float64(); {
	case u < shareSweep:
		kind = server.KindSweep
	case u < shareSweep+shareMatrix:
		kind = server.KindMatrix
	}
	if g.rng.Float64() < sharePool {
		for _, req := range g.pool {
			if req.Kind == kind {
				return req
			}
		}
	}
	return randomJob(g.rng, kind, false)
}

// randomJob draws a job of the given kind from the lattice: 2–4 τ0 values,
// 2–3 V_DAC,0 values and 2–4 V_DAC,FS values, or exactly 3, 2 and 3 (and a
// fixed search budget) when fixed is set.
func randomJob(rng *stats.RNG, kind string, fixed bool) server.JobRequest {
	pick := func(vals []string, lo, spread int) string {
		k := lo + spread/2
		if !fixed {
			k = lo + rng.IntN(spread+1)
		}
		idx := rng.Perm(len(vals))[:k]
		sort.Ints(idx)
		out := make([]string, k)
		for i, j := range idx {
			out[i] = vals[j]
		}
		return strings.Join(out, ",")
	}
	req := server.JobRequest{Kind: kind,
		Tau0:   pick(tauLattice, 2, 2),
		VDAC0:  pick(vdac0Lattice, 2, 1),
		VDACFS: pick(vdacfsLattice, 2, 2),
	}
	conds := strings.Split(fleetConditions, ",")
	switch kind {
	case server.KindSweep:
		req.Conditions = conds[rng.IntN(len(conds))]
	case server.KindMatrix:
		req.Conditions = fleetConditions
	case server.KindSearch:
		req.Conditions = fleetConditions
		req.Budget = 16
		req.Refine = true
		if !fixed {
			req.Budget = 8 << rng.IntN(2)
			req.Refine = rng.IntN(2) == 1
		}
		req.Rungs = 2
		req.Seed = 1 + uint64(rng.IntN(4))
	}
	return req
}

// fleetInst is a server over loopback HTTP whose engine ships cache misses
// to in-process remote workers.
type fleetInst struct {
	e       *env
	ctx     *exp.Context
	srv     *server.Server
	fleet   *remote.Fleet
	workers []*remote.Worker
	http    *http.Server
	served  chan struct{}
	client  *http.Client
	base    string
	// sessions and gens are per client.
	sessions []string
	gens     []*jobGen
	results  specResults
	polls    atomic.Int64
	jobs     atomic.Int64

	mu          sync.Mutex
	queue, exec []float64 // JobStatus Started−Created and Finished−Started [s]
}

func setupFleet(e *env) (_ instance, err error) {
	if err := e.calibrate(); err != nil {
		return nil, err
	}
	f := &fleetInst{e: e, results: specResults{seen: map[string][32]byte{}}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	f.ctx = exp.NewContextWithModel(e.model, e.sz.calib.Tech)
	f.ctx.Spice = e.sz.calib.Spice
	f.ctx.Workers = e.workers
	f.ctx.CacheDir = filepath.Join(e.dir, "cache")
	f.ctx.Recorder = e.rec
	f.srv = server.New(f.ctx) // adopts e.rec, or creates the server's own recorder
	c := e.begin("remote.join")
	fp := f.ctx.Fingerprint()
	if f.fleet, err = remote.Listen("127.0.0.1:0", remote.Options{Fingerprint: fp, Recorder: f.ctx.Recorder, Logger: slog.Default()}); err != nil {
		return nil, err
	}
	f.ctx.Fleet = f.fleet
	model, tech, scfg := e.model, e.sz.calib.Tech, e.sz.calib.Spice
	for i := 0; i < fleetWorkers; i++ {
		w, err := remote.Dial(f.fleet.Addr(), remote.WorkerOptions{
			Fingerprint: fp,
			Backends:    func(name string) (engine.Backend, error) { return engine.ByName(name, model, tech, scfg) },
			Workers:     e.workers / fleetWorkers,
			Logger:      slog.Default(),
			// The worker's clock times each evaluation for the coordinator's
			// trace, as optima-worker's does.
			Recorder: obs.NewRecorder(obs.RecorderOptions{}),
		})
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	for deadline := time.Now().Add(10 * time.Second); f.fleet.WorkerCount() < fleetWorkers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d of %d workers joined the fleet", f.fleet.WorkerCount(), fleetWorkers)
		}
	}
	c.end()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f.base = "http://" + ln.Addr().String()
	f.http = &http.Server{Handler: f.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		f.http.Serve(ln)
	}()
	// One connection per client.
	f.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: e.clients, MaxIdleConnsPerHost: e.clients}}
	for i := 0; i < e.clients; i++ {
		var sess server.SessionStatus
		if err := f.do(http.MethodPost, "/api/sessions", nil, http.StatusCreated, &sess); err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		f.sessions = append(f.sessions, sess.ID)
		f.gens = append(f.gens, newJobGen(e.seed, i))
	}
	return f, nil
}

// do sends one API request and decodes the JSON reply into out.
func (f *fleetInst) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, f.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// runJob submits one job into session sid and polls it to a terminal state
// with backoff from 100 µs to 2 ms, returning its canonical result.
func (f *fleetInst) runJob(sid string, req server.JobRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("job request: %w", err)
	}
	var st server.JobStatus
	c := f.e.begin("server.submit")
	err = f.do(http.MethodPost, "/api/sessions/"+sid+"/jobs", body, http.StatusAccepted, &st)
	c.end()
	if err != nil {
		return nil, err
	}
	path := "/api/sessions/" + sid + "/jobs/" + st.ID
	wait := 100 * time.Microsecond
	for polls := 1; ; polls++ {
		c := f.e.begin("server.poll")
		err := f.do(http.MethodGet, path, nil, http.StatusOK, &st)
		c.end()
		if err != nil {
			return nil, err
		}
		if st.State == server.JobDone || st.State == server.JobFailed || st.State == server.JobCanceled {
			f.polls.Add(int64(polls))
			break
		}
		time.Sleep(wait)
		wait = min(2*wait, 2*time.Millisecond)
	}
	f.jobs.Add(1)
	if st.State != server.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Started != nil && st.Finished != nil {
		f.mu.Lock()
		f.queue = append(f.queue, st.Started.Sub(st.Created).Seconds())
		f.exec = append(f.exec, st.Finished.Sub(*st.Started).Seconds())
		f.mu.Unlock()
	}
	return canonicalResult(req.Kind, st.Result)
}

// op is one job of client c, in the client's session: from sending the POST
// to the GET that returns a terminal state. Every repeat of a spec must
// return the same result.
func (f *fleetInst) op(c, _ int) error {
	req := f.gens[c].next()
	res, err := f.runJob(f.sessions[c], req)
	if err != nil {
		return err
	}
	return f.results.record(req, res)
}

// canonicalResult returns a job result with the fields that depend on cache
// state zeroed — a search's per-rung evaluated / cache-hit / store-hit
// split — so repeats of a spec compare byte for byte.
func canonicalResult(kind string, raw []byte) ([]byte, error) {
	if len(raw) == 0 {
		return nil, errors.New("job done without a result")
	}
	if kind != server.KindSearch {
		return raw, nil
	}
	var rep search.JSONReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("search result: %w", err)
	}
	for i := range rep.Trace.Rungs {
		r := &rep.Trace.Rungs[i]
		r.Evaluated, r.CacheHits, r.StoreHits = 0, 0, 0
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("search result: %w", err)
	}
	return out, nil
}

// specResults holds the result digest of every spec a run submitted, and
// counts the results recorded and how many of them repeated a spec.
type specResults struct {
	mu         sync.Mutex
	seen       map[string][32]byte
	n, repeats int
}

// record fails when a spec returns another result than it did before.
func (s *specResults) record(req server.JobRequest, result []byte) error {
	key, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("job request: %w", err)
	}
	sum := sha256.Sum256(result)
	s.mu.Lock()
	prev, ok := s.seen[string(key)]
	if !ok {
		s.seen[string(key)] = sum
	}
	s.n++
	if ok {
		s.repeats++
	}
	s.mu.Unlock()
	if ok && prev != sum {
		return fmt.Errorf("%s job %s returned a different result than its earlier run", req.Kind, key)
	}
	return nil
}

// localResult computes a job's canonical result directly, on a fresh local
// engine with no fleet and no store: the reference a server result must
// match byte for byte.
func localResult(e *env, req server.JobRequest) ([]byte, error) {
	space, err := search.ParseSpaceSpec(req.Tau0, req.VDAC0, req.VDACFS)
	if err != nil {
		return nil, err
	}
	conds, err := engine.ParseConditionSet(req.Conditions)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Behavioral{Model: e.model}, e.workers)
	var v any
	switch req.Kind {
	case server.KindSearch:
		res, err := search.Run(context.Background(), jobSearchOptions(req, space, conds, eng))
		if err != nil {
			return nil, err
		}
		v = search.NewJSONReport(res)
	default:
		cfgs, err := space.Configs()
		if err != nil {
			return nil, err
		}
		mat, err := eng.EvaluateMatrix(cfgs, conds)
		if err != nil {
			return nil, err
		}
		v = server.MatrixResult{Conditions: conds.String(), Robust: search.RobustPoints(dse.RobustFromMatrix(mat))}
		if req.Kind == server.KindSweep {
			v = server.SweepResult{Condition: conds.String(), Points: search.FrontPoints(mat.Col(0))}
		}
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("local result: %w", err)
	}
	return canonicalResult(req.Kind, raw)
}

// jobSearchOptions are the search options a search job request stands for.
func jobSearchOptions(req server.JobRequest, space search.Space, conds engine.ConditionSet, screen *engine.Engine) search.Options {
	return search.Options{Space: space, Screen: screen, Conditions: conds, Budget: req.Budget,
		Rungs: req.Rungs, Eta: req.Eta, Finalists: req.Finalists, Refine: req.Refine, Seed: req.Seed}
}

func (f *fleetInst) cells() uint64 { return resolved(f.ctx.Engine().Stats()) }

func (f *fleetInst) counts(l *layers, ops int) {
	l.engineCounts(f.ctx.Engine().Stats(), ops)
	if st := f.ctx.Store(); st != nil {
		l.set("store.records", float64(st.Stats().Live), 1)
	}
	jobs := int(f.jobs.Load())
	l.set("server.polls_per_job", float64(f.polls.Load())/float64(max(jobs, 1)), jobs)
	f.mu.Lock()
	queue, exec := f.queue, f.exec
	f.mu.Unlock()
	l.set("server.queue_ms", median(queue)*1e3, len(queue))
	l.set("server.exec_ms", median(exec)*1e3, len(exec))
	f.results.mu.Lock()
	n, repeats := f.results.n, f.results.repeats
	f.results.mu.Unlock()
	l.set("server.repeat_share", float64(repeats)/float64(max(n, 1)), n)
}

// probe runs the probes on the first corner of the seed's pooled sweep job.
func (f *fleetInst) probe() probeInputs {
	req := jobPool(f.e.seed)[0]
	space, err := search.ParseSpaceSpec(req.Tau0, req.VDAC0, req.VDACFS)
	if err != nil {
		return probeInputs{cfg: fomConfig}
	}
	cfgs, err := space.Configs()
	if err != nil {
		return probeInputs{cfg: fomConfig}
	}
	return probeInputs{cfg: cfgs[0]}
}

// check reruns the pool's job of each kind through the server and directly
// on a fresh local engine: the results must match byte for byte. The digest
// covers those results.
func (f *fleetInst) check() (string, error) {
	d := newDigest()
	for _, req := range jobPool(f.e.seed) {
		got, err := f.runJob(f.sessions[0], req)
		if err != nil {
			return "", fmt.Errorf("reference %s job: %w", req.Kind, err)
		}
		if err := f.results.record(req, got); err != nil {
			return "", err
		}
		want, err := localResult(f.e, req)
		if err != nil {
			return "", fmt.Errorf("reference %s job, local run: %w", req.Kind, err)
		}
		if !bytes.Equal(got, want) {
			return "", fmt.Errorf("reference %s job: the server's result differs from a local run", req.Kind)
		}
		d.bytes(got)
	}
	return d.sum(), nil
}

// close stops the HTTP server, drains the server's jobs (which closes the
// experiment context, its store and the fleet), then the workers.
func (f *fleetInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if f.http != nil {
		errs = append(errs, f.http.Shutdown(ctx))
		<-f.served
	}
	errs = append(errs, f.srv.Shutdown(ctx))
	for _, w := range f.workers {
		w.Close()
		w.Wait()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	return errors.Join(errs...)
}
