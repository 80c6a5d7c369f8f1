package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/obs"
	"optima/internal/spice"
	"optima/internal/store"
)

// layers accumulates the per-layer metrics of a traced run.
type layers struct {
	mu   sync.Mutex
	durs map[string][]float64 // benchmark span durations [s] by span name
	vals map[string]float64   // per-layer metric values by metric name
	n    map[string]int       // the sample count behind each value
}

func newLayers() *layers {
	return &layers{durs: map[string][]float64{}, vals: map[string]float64{}, n: map[string]int{}}
}

func (l *layers) addDur(name string, d time.Duration) {
	l.mu.Lock()
	l.durs[name] = append(l.durs[name], d.Seconds())
	l.mu.Unlock()
}

// set books a metric's value, measured over n samples (ops, calls or
// reps).
func (l *layers) set(name string, v float64, n int) {
	l.mu.Lock()
	l.vals[name], l.n[name] = v, n
	l.mu.Unlock()
}

// spanMetrics are the per-layer metrics read off the benchmark's own spans:
// the median duration of the named span, scaled to the metric's unit.
var spanMetrics = []struct {
	metric, span string
	scale        float64
}{
	{"core.calibrate_s", "core.calibrate", 1},
	{"store.open_ms", "store.open", 1e3},
	{"store.close_ms", "store.close", 1e3},
	{"exp.selection_s", "exp.selection", 1},
	{"exp.fig8_s", "exp.fig8", 1},
	{"exp.speedup_s", "exp.speedup", 1},
	{"server.submit_ms", "server.submit", 1e3},
	{"server.poll_ms", "server.poll", 1e3},
	{"remote.join_ms", "remote.join", 1e3},
}

// setSelf books the self-time metrics of the timed phase's spans: the
// search layer's own time (search and rung spans, and the benchmark span
// around search.Run, minus the engine and store work under them) per
// search run.
func (l *layers) setSelf(self map[string]time.Duration, spans []obs.Span) {
	runs := 0
	for _, s := range spans {
		if s.Cat == benchCat && s.Name == "search.run" {
			runs++
		}
	}
	if runs > 0 {
		own := self["search"] + self[obs.CatRung]
		l.set("search.run_self_ms", own.Seconds()*1e3/float64(runs), runs)
	}
}

// summary assembles every per-layer metric; a layer the workload does not
// exercise reads 0.
func (l *layers) summary() summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sm := range spanMetrics {
		if d := l.durs[sm.span]; len(d) > 0 {
			l.vals[sm.metric], l.n[sm.metric] = median(d)*sm.scale, len(d)
		}
	}
	rep := summary{metrics: perLayer, values: map[string]float64{}, samples: map[string]int{}}
	for _, m := range perLayer {
		rep.values[m.name], rep.samples[m.name] = l.vals[m.name], l.n[m.name]
	}
	return rep
}

// registrySamples snapshots the recorder's metrics registry by name.
func registrySamples(rec *obs.Recorder) map[string]float64 {
	out := map[string]float64{}
	for _, s := range rec.Metrics().Samples() {
		out[s.Name] = s.Value
	}
	return out
}

// sumPrefix sums every sample whose name starts with prefix (all label
// sets of one series family).
func sumPrefix(samples map[string]float64, prefix string) float64 {
	var sum float64
	for name, v := range samples {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// registryDelta books the metrics the program's own registry counted over
// the timed phase (before → after), per op where they are counts.
func (l *layers) registryDelta(before, after map[string]float64, ops int) {
	delta := func(prefix string) float64 { return sumPrefix(after, prefix) - sumPrefix(before, prefix) }
	perOp := func(name, prefix string) { l.set(name, delta(prefix)/float64(max(ops, 1)), ops) }
	if n := delta("optima_queue_wait_seconds_count"); n > 0 {
		l.set("engine.queue_wait_ms", delta("optima_queue_wait_seconds_sum")/n*1e3, int(n))
	}
	l.set("engine.eval_busy_s", delta("optima_eval_duration_seconds_sum"), ops)
	perOp("store.gets_per_op", "optima_store_gets_total")
	perOp("store.put_records_per_op", "optima_store_put_records_total")
	l.set("store.segment_bytes", sumPrefix(after, "optima_store_segment_bytes"), 1)
	perOp("remote.cells_shipped_per_op", "optima_remote_cells_shipped_total")
	perOp("remote.retries_per_op", "optima_remote_retries_total")
	perOp("remote.local_fallbacks_per_op", "optima_remote_local_fallbacks_total")
	if shipped := delta("optima_remote_cells_shipped_total"); shipped > 0 {
		bytes := delta("optima_remote_bytes_sent_total") + delta("optima_remote_bytes_received_total")
		l.set("remote.bytes_per_cell", bytes/shipped, int(shipped))
	}
}

// engineCounts books the engine accounting of a phase of ops.
func (l *layers) engineCounts(st engine.Stats, ops int) {
	perOp := func(name string, v uint64) { l.set(name, float64(v)/float64(max(ops, 1)), ops) }
	perOp("engine.evals_per_op", st.Misses)
	perOp("engine.memory_hits_per_op", st.Hits)
	perOp("engine.store_hits_per_op", st.DiskHits)
	if total := resolved(st); total > 0 {
		l.set("engine.hit_ratio", float64(st.Hits+st.DiskHits)/float64(total), int(total))
	}
}

func addStats(a, b engine.Stats) engine.Stats {
	return engine.Stats{Hits: a.Hits + b.Hits, DiskHits: a.DiskHits + b.DiskHits,
		Misses: a.Misses + b.Misses, StoreErrors: a.StoreErrors + b.StoreErrors, Entries: a.Entries + b.Entries}
}

func resolved(st engine.Stats) uint64 { return st.Hits + st.DiskHits + st.Misses }

// storeTimes is the timing decorator at the engine.Store seam: it wraps the
// stores a workload opens itself and times every Get and PutBatch.
type storeTimes struct {
	getNS, gets, putNS, puts atomic.Int64
}

type timedStore struct {
	st *store.Store
	t  *storeTimes
}

// wrap returns st timed when t is non-nil (a traced setup), else st itself.
func (t *storeTimes) wrap(st *store.Store) engine.Store {
	if t == nil {
		return st
	}
	return timedStore{st, t}
}

func (s timedStore) Get(k engine.Key) (engine.Metrics, bool) {
	start := time.Now()
	met, ok := s.st.Get(k)
	s.t.getNS.Add(int64(time.Since(start)))
	s.t.gets.Add(1)
	return met, ok
}

func (s timedStore) PutBatch(entries []engine.CacheEntry) error {
	start := time.Now()
	err := s.st.PutBatch(entries)
	s.t.putNS.Add(int64(time.Since(start)))
	s.t.puts.Add(1)
	return err
}

func (t *storeTimes) book(l *layers) {
	if t == nil {
		return
	}
	if n := t.gets.Load(); n > 0 {
		l.set("store.get_us", float64(t.getNS.Load())/float64(n)/1e3, int(n))
	}
	if n := t.puts.Load(); n > 0 {
		l.set("store.putbatch_ms", float64(t.putNS.Load())/float64(n)/1e6, int(n))
	}
}

// timeEach returns the duration of each of n calls of f [s].
func timeEach(n int, f func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out[i] = time.Since(start).Seconds()
	}
	return out, nil
}

// runProbes books the probe metrics: the median time per call of one
// layer's public function, on the workload's own configuration at the
// nominal condition.
func runProbes(e *env, in probeInputs) error {
	cfg, cond := in.cfg, device.Nominal()
	tech, scfg := e.sz.calib.Tech, e.sz.calib.Spice
	n := e.sz.probeReps
	probe := func(metric string, scale float64, reps int, f func(i int) error) error {
		ts, err := timeEach(reps, f)
		if err != nil {
			return err
		}
		e.lay.set(metric, median(ts)*scale, reps)
		return nil
	}
	vwl := cfg.DACVoltage(mult.OperandMax, cond.VDD)
	if err := probe("spice.transient_us", 1e6, n, func(int) error {
		_, err := spice.NewDischargePath(tech, vwl, cond).Discharge(cfg.MaxTime(), scfg, 0)
		return err
	}); err != nil {
		return err
	}
	g, err := mult.NewGolden(tech, cfg, cond, scfg)
	if err != nil {
		return err
	}
	var scr spice.Scratch
	if err := probe("mult.golden_multiply_us", 1e6, n, func(i int) error {
		_, err := g.MultiplyCells(uint(i)&mult.OperandMax, uint(i>>4)&mult.OperandMax, nil, &scr)
		return err
	}); err != nil {
		return err
	}
	if err := probe("mult.behavioral_build_us", 1e6, n, func(int) error {
		_, err := mult.NewBehavioral(e.model, cfg, cond)
		return err
	}); err != nil {
		return err
	}
	b, err := mult.NewBehavioral(e.model, cfg, cond)
	if err != nil {
		return err
	}
	const pairs = (mult.OperandMax + 1) * (mult.OperandMax + 1)
	if err := probe("mult.multiply_det_ns", 1e9/pairs, n, func(int) error {
		for i := uint(0); i < pairs; i++ {
			if _, err := b.MultiplyDet(i&mult.OperandMax, i>>4); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := probe("engine.golden_cell_ms", 1e3, e.sz.goldenProbes, func(int) error {
		_, err := engine.NewGoldenBackend(tech, scfg).EvaluateBudget(cfg, cond, e.workers)
		return err
	}); err != nil {
		return err
	}
	beh := engine.Behavioral{Model: e.model}
	if err := probe("engine.behavioral_cell_us", 1e6, n, func(int) error {
		_, err := beh.Evaluate(cfg, cond)
		return err
	}); err != nil {
		return err
	}
	if in.warmSearch != nil {
		return probe("search.warm_run_ms", 1e3, min(n, 8), func(int) error { return in.warmSearch() })
	}
	return nil
}
