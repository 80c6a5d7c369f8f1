package spice

import (
	"container/list"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"optima/internal/obs"
)

const (
	// trajCapBytes is the byte budget of a Trajectories memo.
	trajCapBytes = 1 << 20
	// checkpointEvery is the number of attempts between two checkpoints of
	// a trajectory.
	checkpointEvery = 32
	// trajOverheadBytes approximates a trajectory's memory besides its
	// checkpoints: the struct, its map entry and its list element.
	trajOverheadBytes = 512
	checkpointBytes   = int(unsafe.Sizeof(checkpoint{}))
)

// Trajectories memoizes bit-line discharge trajectories, so that every
// duration read from one discharge integrates it once. A discharge depends
// on its resolved devices, word-line voltage, capacitances, condition and
// solver settings, not on how long it runs, and the integrator makes reuse
// exact: a run to T makes the same attempts as a run with no horizon, up
// to the first attempt with t + h > T, where it clamps h. So the memo
// integrates each trajectory with no horizon, lazily and only as far as a
// request needs, keeping a checkpoint every checkpointEvery attempts. A
// request for duration T resumes the latest state whose attempts all
// stayed within T and finishes the run to T from there: bit for bit the
// run Discharge(T) makes.
//
// Past trajCapBytes the least recently used trajectories are dropped.
// Errors are not memoized: a request whose run fails makes the failing
// attempt again. A Trajectories is safe for concurrent use. A nil
// *Trajectories memoizes nothing and runs a fresh transient per request.
type Trajectories struct {
	capBytes int

	mu    sync.Mutex
	byKey map[trajKey]*trajectory
	lru   list.List // of *trajectory, most recently used first
	bytes int       // accounted size of the trajectories in byKey
	n     *trajCounts
}

// trajCounts are a memo's running counts, allocated apart from it so that
// a registry holding them never keeps the trajectories alive.
type trajCounts struct{ integrated, reads, evictions atomic.Uint64 }

// trajKey identifies a trajectory: the resolved discharge path (its
// initial state included, through vdd) and the effective solver settings.
type trajKey struct {
	path resolvedPath
	cfg  Config
}

// trajectory is one discharge integrated with no horizon.
type trajectory struct {
	key trajKey

	// mu is held while the frontier extends; it guards ckpts and front.
	mu    sync.Mutex
	ckpts []checkpoint // the initial state, then one every checkpointEvery attempts
	front checkpoint   // the latest state integrated

	// Guarded by Trajectories.mu.
	elem *list.Element // nil once evicted
	size int           // bytes accounted for it
}

// checkpoint is a state of a trajectory's integration: the stepper's t,
// h, v, steps and evals, and reach, the largest t + h of the attempts that
// led to it. A run to T passes through exactly the states whose reach is
// at most T.
type checkpoint struct {
	t, h         float64
	v            [2]float64
	steps, evals int
	reach        float64
}

// NewTrajectories returns an empty memo capped at 1 MiB.
func NewTrajectories() *Trajectories { return newTrajectories(trajCapBytes) }

func newTrajectories(capBytes int) *Trajectories {
	return &Trajectories{capBytes: capBytes, byKey: map[trajKey]*trajectory{}, n: new(trajCounts)}
}

// Observe attaches the memo's counts to reg (nil attaches nothing): the
// trajectories it started integrating, the durations and samples it
// served, and the trajectories it evicted.
func (m *Trajectories) Observe(reg *obs.Registry) {
	reg.CounterOf("optima_golden_trajectories_total",
		"bit-line discharge trajectories the golden memo integrated", &m.n.integrated)
	reg.CounterOf("optima_golden_trajectory_reads_total",
		"discharge durations and samples the golden memo served", &m.n.reads)
	reg.CounterOf("optima_golden_trajectory_evictions_total",
		"trajectories the golden memo dropped past its byte cap", &m.n.evictions)
}

// Final returns V_BLB at the end of d's discharge for duration: bit for bit
// d.DischargeFinal(duration, cfg, scr), which a nil memo runs.
func (m *Trajectories) Final(d *DischargePath, duration float64, cfg Config, scr *Scratch) (float64, error) {
	tr := m.lookup(d, cfg, duration)
	if tr == nil {
		return d.DischargeFinal(duration, cfg, scr)
	}
	if scr == nil {
		scr = &Scratch{}
	}
	st, err := m.resume(tr, duration, math.Inf(1), scr)
	if err != nil {
		return 0, err
	}
	if err := st.run(duration); err != nil {
		return 0, err
	}
	m.n.reads.Add(1)
	return st.v[0], nil
}

// Samples returns V_BLB at each time of at, as Waveform.NodeAt(0, t) reads
// it from d.Discharge(horizon, cfg, 0): the one run a nil memo makes for
// all of them, in scr's buffers (nil allocates).
func (m *Trajectories) Samples(d *DischargePath, horizon float64, at []float64, cfg Config, scr *Scratch) ([]float64, error) {
	out := make([]float64, len(at))
	if scr == nil {
		scr = &Scratch{}
	}
	if tr := m.lookup(d, cfg, horizon); tr != nil {
		served := true
		for i, t := range at {
			v, ok, err := m.sample(tr, horizon, t, scr)
			if err != nil {
				return nil, err
			}
			out[i], served = v, served && ok
		}
		// The waveform exists only if the whole run succeeds, so a run
		// that fails past the last sample fails the read.
		if !slices.Contains(at, horizon) {
			if _, _, err := m.sample(tr, horizon, horizon, scr); err != nil {
				return nil, err
			}
		}
		if served {
			m.n.reads.Add(uint64(len(at)))
			return out, nil
		}
	}
	res, err := Transient(d.resolve(), d.InitialState(), 0, horizon, d.Cond.VDD, cfg, 0, scr)
	if err != nil {
		return nil, err
	}
	for i, t := range at {
		out[i] = res.Waveform.NodeAt(0, t)
	}
	return out, nil
}

// lookup returns the trajectory of d under cfg, creating it on first use,
// or nil where the memo cannot serve a run to horizon: a nil memo, a
// window a run rejects, InitStep <= 0 (the first step is then a share of
// the run's length, so runs of different lengths differ from the start),
// or a NaN in the key (which never equals itself, so it could be neither
// found nor evicted).
func (m *Trajectories) lookup(d *DischargePath, cfg Config, horizon float64) *trajectory {
	if m == nil || !(horizon > 0) {
		return nil
	}
	cfg = cfg.effective()
	key := trajKey{path: *d.resolve(), cfg: cfg}
	if cfg.InitStep <= 0 || key != key {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tr := m.byKey[key]
	if tr != nil {
		m.lru.MoveToFront(tr.elem)
		return tr
	}
	v0 := d.InitialState()
	start := checkpoint{h: cfg.InitStep, v: [2]float64{v0[0], v0[1]}}
	tr = &trajectory{key: key, ckpts: []checkpoint{start}, front: start}
	tr.elem = m.lru.PushFront(tr)
	m.byKey[key] = tr
	m.n.integrated.Add(1)
	m.account(tr, tr.bytes())
	return tr
}

// resume extends tr's frontier as far as the run to horizon goes and
// returns a stepper at the latest state of that run whose t is below
// before. An attempt the extension fails on is one the run makes, so its
// error is the run's.
func (m *Trajectories) resume(tr *trajectory, horizon, before float64, scr *Scratch) (stepper, error) {
	tr.mu.Lock()
	err := tr.extend(horizon, scr)
	c := tr.latest(horizon, before)
	size := tr.bytes()
	tr.mu.Unlock()

	m.mu.Lock()
	m.account(tr, size)
	m.mu.Unlock()
	if err != nil {
		return stepper{}, err
	}
	return tr.stepper(c, scr), nil
}

// sample returns V_BLB at time at of the run to horizon, as Waveform.At
// reads the run's recorded steps: the run's last state if at is at or past
// it, else the interpolation between the last accepted state before at and
// the first at or past it. ok is false where the memo cannot mirror that
// read: at outside (0, horizon], or a step short enough to leave t
// unchanged, which the waveform records by overwriting its last sample.
func (m *Trajectories) sample(tr *trajectory, horizon, at float64, scr *Scratch) (v float64, ok bool, err error) {
	if !(at > 0 && at <= horizon) {
		return 0, false, nil
	}
	st, err := m.resume(tr, horizon, at, scr)
	if err != nil {
		return 0, false, err
	}
	loT, loV := st.t, st.v[0]
	for st.t < at {
		if _, err := st.attempt(horizon); err != nil {
			return 0, false, err
		}
		if st.t < at {
			loT, loV = st.t, st.v[0]
		}
	}
	if st.t >= horizon && at >= st.t {
		return st.v[0], true, nil
	}
	if st.t < horizon && !(st.t+st.cfg.MinStep > st.t) {
		return 0, false, nil
	}
	return lerp(at, loT, st.t, loV, st.v[0]), true, nil
}

// account books tr at size bytes if it is still memoized and grew, then
// evicts least recently used trajectories while the memo is over its cap.
// m.mu must be held.
func (m *Trajectories) account(tr *trajectory, size int) {
	if tr.elem == nil || size <= tr.size {
		return
	}
	m.bytes += size - tr.size
	tr.size = size
	for m.bytes > m.capBytes {
		old := m.lru.Remove(m.lru.Back()).(*trajectory)
		old.elem = nil
		delete(m.byKey, old.key)
		m.bytes -= old.size
		m.n.evictions.Add(1)
	}
}

// extend integrates the frontier with no horizon for as long as the run to
// horizon makes the same attempts (t < horizon and t + h ≤ horizon from a
// state of that run), checkpointing every checkpointEvery attempts. A
// failing attempt leaves the frontier before it. tr.mu must be held.
func (tr *trajectory) extend(horizon float64, scr *Scratch) error {
	f := tr.front
	if !(f.reach <= horizon && f.t < horizon && f.t+f.h <= horizon) {
		return nil
	}
	st := tr.stepper(f, scr)
	for st.t < horizon && st.t+st.h <= horizon {
		reach := max(f.reach, st.t+st.h)
		if _, err := st.attempt(math.Inf(1)); err != nil {
			tr.front = f
			return err
		}
		f = checkpoint{t: st.t, h: st.h, v: [2]float64{st.v[0], st.v[1]}, steps: st.steps, evals: st.evals, reach: reach}
		if f.evals/6%checkpointEvery == 0 {
			tr.ckpts = append(tr.ckpts, f)
		}
	}
	tr.front = f
	return nil
}

// latest returns the latest state of the run to horizon whose t is below
// before: the frontier if it qualifies, else the last checkpoint that does
// (the initial state does for any positive horizon and before). tr.mu must
// be held.
func (tr *trajectory) latest(horizon, before float64) checkpoint {
	on := func(c checkpoint) bool { return c.reach <= horizon && c.t < before }
	if on(tr.front) {
		return tr.front
	}
	return tr.ckpts[sort.Search(len(tr.ckpts), func(i int) bool { return !on(tr.ckpts[i]) })-1]
}

// stepper returns a stepper resumed at c, working in scr's buffers.
func (tr *trajectory) stepper(c checkpoint, scr *Scratch) stepper {
	st := scr.stepper(&tr.key.path, tr.key.cfg)
	st.t, st.h, st.steps, st.evals = c.t, c.h, c.steps, c.evals
	st.v[0], st.v[1] = c.v[0], c.v[1]
	return st
}

// bytes is tr's accounted size. tr.mu must be held once tr is shared.
func (tr *trajectory) bytes() int { return trajOverheadBytes + cap(tr.ckpts)*checkpointBytes }
