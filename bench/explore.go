package main

import (
	"context"
	"fmt"
	"path/filepath"

	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/search"
	"optima/internal/store"
)

// exploreSize sizes one exploration: the design space is the paper's grid
// with each gap subdivided, searched robustly across a condition set.
type exploreSize struct {
	tauSub, v0Sub, fsSub     int
	budget, rungs, finalists int
	conditions               string
}

// deriveSeed mixes a workload seed and an op index into an independent
// seed (splitmix64).
func deriveSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// exploreOptions returns exploration k of a workload seed, without the
// engines and telemetry the caller wires in.
func exploreOptions(sz exploreSize, seed uint64, k int) (search.Options, error) {
	sp := search.FromGrid(dse.DefaultGrid())
	sp.Tau0 = sp.Tau0.Subdivided(sz.tauSub)
	sp.VDAC0 = sp.VDAC0.Subdivided(sz.v0Sub)
	sp.VDACFS = sp.VDACFS.Subdivided(sz.fsSub)
	conds, err := engine.ParseConditionSet(sz.conditions)
	if err != nil {
		return search.Options{}, fmt.Errorf("explore conditions: %w", err)
	}
	return search.Options{Space: sp, Conditions: conds, Budget: sz.budget, Rungs: sz.rungs,
		Refine: true, Finalists: sz.finalists, Seed: deriveSeed(seed, k)}, nil
}

// searchDigest digests every cell a search returned: finalists, front, and
// the finalists' per-condition metrics.
func searchDigest(res *search.Result) string {
	d := newDigest()
	d.metrics(res.Finalists...)
	d.metrics(res.Front...)
	for _, r := range res.Robust {
		d.metrics(r.PerCond...)
	}
	return d.sum()
}

// exploreInst runs explorations: cold into a fresh store per op
// (explore-cold), or replayed from the store its setup filled
// (replay-warm).
type exploreInst struct {
	e      *env
	replay bool
	fp     string
	times  *storeTimes // nil untraced
	// shared is the replay store directory.
	shared string
	// digest is the digest of exploration 0: op 0 (explore-cold), or the
	// exploration that filled the replay store.
	digest  string
	tot     engine.Stats
	screen  uint64 // search screen / final evaluations over all ops
	final   uint64
	records int
	last    search.Options // the last op's options, on its warm engines
	lastCfg mult.Config    // a finalist of the last op: the probe input
}

func newExploreInst(e *env, replay bool) (*exploreInst, error) {
	if err := e.calibrate(); err != nil {
		return nil, err
	}
	fp, err := store.Fingerprint(engine.MetricsSchema, e.model, e.sz.calib.Tech, e.sz.calib.Spice)
	if err != nil {
		return nil, fmt.Errorf("fingerprint: %w", err)
	}
	x := &exploreInst{e: e, replay: replay, fp: fp}
	if e.rec != nil {
		x.times = &storeTimes{}
	}
	return x, nil
}

func setupExplore(e *env) (instance, error) { return newExploreInst(e, false) }

// setupReplay fills one store with the workload's exploration 0 — the one
// explore-cold runs first for the same seed — and keeps its digest.
func setupReplay(e *env) (instance, error) {
	x, err := newExploreInst(e, true)
	if err != nil {
		return nil, err
	}
	x.shared = filepath.Join(e.dir, "store")
	res, _, err := x.explore(x.shared, 0)
	if err != nil {
		return nil, fmt.Errorf("fill exploration: %w", err)
	}
	x.digest = searchDigest(res)
	x.tot, x.screen, x.final = engine.Stats{}, 0, 0
	if x.times != nil {
		x.times = &storeTimes{}
	}
	return x, nil
}

// explore runs exploration k against the store in dir on fresh engines —
// a behavioral screen and a golden final engine sharing the store — and
// closes the store.
func (x *exploreInst) explore(dir string, k int) (*search.Result, engine.Stats, error) {
	e := x.e
	opts, err := exploreOptions(e.sz.explore, e.seed, k)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	c := e.begin("store.open")
	st, err := store.Open(dir, store.Options{Fingerprint: x.fp, Recorder: e.rec})
	c.end()
	if err != nil {
		return nil, engine.Stats{}, fmt.Errorf("open store: %w", err)
	}
	es := x.times.wrap(st)
	opts.Screen = engine.New(engine.Behavioral{Model: e.model}, e.workers).WithStore(es).WithRecorder(e.rec)
	opts.Final = engine.New(engine.NewGoldenBackend(e.sz.calib.Tech, e.sz.calib.Spice), e.workers).WithStore(es).WithRecorder(e.rec)
	opts.Recorder = e.rec
	c = e.begin("search.run")
	opts.Span = c.id()
	res, err := search.Run(context.Background(), opts)
	c.end()
	x.records = st.Stats().Live
	c = e.begin("store.close")
	cerr := st.Close()
	c.end()
	if err != nil {
		return nil, engine.Stats{}, fmt.Errorf("search: %w", err)
	}
	if cerr != nil {
		return nil, engine.Stats{}, fmt.Errorf("close store: %w", cerr)
	}
	stats := addStats(opts.Screen.Stats(), opts.Final.Stats())
	x.tot = addStats(x.tot, stats)
	x.screen += res.Trace.ScreenEvaluations()
	x.final += res.Trace.FinalEvaluations()
	x.last = opts
	if len(res.Finalists) > 0 {
		x.lastCfg = res.Finalists[0].Config
	}
	return res, stats, nil
}

func (x *exploreInst) op(_, k int) error {
	if x.replay {
		res, stats, err := x.explore(x.shared, 0)
		if err != nil {
			return err
		}
		return checkReplay(stats, x.digest, searchDigest(res))
	}
	res, stats, err := x.explore(filepath.Join(x.e.dir, fmt.Sprintf("op-%d", k)), k)
	if err != nil {
		return err
	}
	if err := checkCold(res, stats, x.records, x.e.sz.explore.finalists); err != nil {
		return err
	}
	if k == 0 {
		x.digest = searchDigest(res)
	}
	return nil
}

// checkReplay fails a replay that evaluated anything or returned other
// cells than the exploration that filled the store.
func checkReplay(st engine.Stats, want, got string) error {
	if st.Misses > 0 {
		return fmt.Errorf("replay evaluated %d cells, want 0 (every cell is in the store)", st.Misses)
	}
	return sameDigest("replay", want, got)
}

// checkCold fails a cold exploration that lost a finalist or did not
// persist every cell it evaluated.
func checkCold(res *search.Result, st engine.Stats, records, finalists int) error {
	if len(res.Finalists) != finalists {
		return fmt.Errorf("%d finalists, want %d", len(res.Finalists), finalists)
	}
	if st.StoreErrors > 0 || records != int(st.Misses) {
		return fmt.Errorf("store holds %d records after %d evaluations (%d store errors)", records, st.Misses, st.StoreErrors)
	}
	return nil
}

func (x *exploreInst) cells() uint64 { return resolved(x.tot) }

func (x *exploreInst) counts(l *layers, ops int) {
	l.engineCounts(x.tot, ops)
	x.times.book(l)
	l.set("store.records", float64(x.records), 1)
	l.set("search.screen_cells_per_op", float64(x.screen)/float64(max(ops, 1)), ops)
	l.set("search.final_cells_per_op", float64(x.final)/float64(max(ops, 1)), ops)
}

func (x *exploreInst) probe() probeInputs {
	return probeInputs{cfg: x.lastCfg, warmSearch: func() error {
		_, err := search.Run(context.Background(), x.last)
		return err
	}}
}

func (x *exploreInst) check() (string, error) { return x.digest, nil }

func (x *exploreInst) close() error { return nil }
