package remote

import (
	"bufio"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"optima/internal/engine"
	"optima/internal/obs"
)

// Options configures a coordinator Fleet.
type Options struct {
	// Fingerprint is the session's calibration fingerprint
	// (exp.Context.Fingerprint). Workers whose fingerprint differs are
	// rejected in the handshake: a mismatched calibration would compute
	// different metrics for the same key, silently poisoning the
	// content-addressed cache.
	Fingerprint string
	// Recorder receives the coordinator's telemetry: a span per dispatch
	// (nested under the engine's batch span when the engine records to the
	// same recorder), shipment spans per worker batch, worker-reported
	// evaluation spans, every FleetStats count, and a connected-workers
	// gauge. Nil records nothing.
	Recorder *obs.Recorder
	// Logger receives worker lifecycle and degradation events
	// (nil = slog.Default()).
	Logger *slog.Logger
}

// FleetStats is a snapshot of the coordinator's accounting.
type FleetStats struct {
	// Workers is the number of currently connected workers.
	Workers int `json:"workers"`
	// CellsShipped counts cells sent to workers, including re-ships.
	CellsShipped uint64 `json:"cells_shipped"`
	// Results counts cell results accepted from workers.
	Results uint64 `json:"results"`
	// Duplicates counts late or duplicate results dropped (a cell that was
	// re-shipped resolves first-wins; the loser lands here).
	Duplicates uint64 `json:"duplicates"`
	// Retries counts cells re-shipped to an idle worker because their
	// original owner was slow (work stealing).
	Retries uint64 `json:"retries"`
	// Reassignments counts cells reassigned off a dead worker.
	Reassignments uint64 `json:"reassignments"`
	// LocalFallbacks counts cells evaluated on the coordinator's local
	// backend because no workers were connected (or all were lost).
	LocalFallbacks uint64 `json:"local_fallbacks"`
	// Rejected counts workers refused in the handshake (protocol or
	// fingerprint mismatch).
	Rejected uint64 `json:"rejected"`
	// BytesSent / BytesReceived count frame bytes on the wire.
	BytesSent     uint64 `json:"bytes_sent"`
	BytesReceived uint64 `json:"bytes_received"`
}

// String renders the snapshot in the one-line style of engine.Stats.
func (s FleetStats) String() string {
	return fmt.Sprintf("workers=%d shipped=%d results=%d dup=%d retries=%d reassigned=%d local=%d rejected=%d sent=%dB recv=%dB",
		s.Workers, s.CellsShipped, s.Results, s.Duplicates, s.Retries,
		s.Reassignments, s.LocalFallbacks, s.Rejected, s.BytesSent, s.BytesReceived)
}

// Fleet is the coordinator: it owns the listener workers dial, tracks the
// connected worker set, and distributes evaluation batches across it. It
// is an engine.Dispatcher (attach it with Engine.WithDispatcher), and one
// Fleet serves any number of engines and concurrent dispatches. All
// methods are safe for concurrent use.
type Fleet struct {
	fingerprint string
	ln          net.Listener
	log         *slog.Logger
	rec         *obs.Recorder

	mu         sync.Mutex
	closed     bool
	nextWorker uint64
	nextDisp   uint64
	workers    []*workerConn // join order; the shard routing domain
	dispatches map[uint64]*dispatch

	wg sync.WaitGroup
	n  *counts
}

// counts is the coordinator's accounting, the one home of each FleetStats
// count: Stats reads it, and Listen attaches it to the recorder's registry.
// It is allocated apart from the Fleet so that a registry holding it never
// keeps the fleet's connections and dispatch state alive.
type counts struct {
	cellsShipped, results, duplicates  atomic.Uint64
	retries, reassignments, fallbacks  atomic.Uint64
	rejected, bytesSent, bytesReceived atomic.Uint64
}

// workerConn is one connected worker. Frame writes are serialized by wmu;
// the read loop owns the receive side.
type workerConn struct {
	id       uint64
	conn     net.Conn
	capacity int

	wmu  sync.Mutex
	dead atomic.Bool
}

// Listen starts a coordinator on addr (host:port; ":0" for an ephemeral
// port). The fleet accepts workers immediately; evaluation methods
// degrade to local execution until workers join.
func Listen(addr string, opts Options) (*Fleet, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	log := opts.Logger
	if log == nil {
		log = slog.Default()
	}
	f := &Fleet{
		fingerprint: opts.Fingerprint,
		ln:          ln,
		log:         log,
		rec:         opts.Recorder,
		dispatches:  map[uint64]*dispatch{},
		n:           &counts{},
	}
	if reg := f.rec.Metrics(); reg != nil {
		for _, c := range []struct {
			name, help string
			v          *atomic.Uint64
		}{
			{"optima_remote_cells_shipped_total", "evaluation cells shipped to workers (including re-ships)", &f.n.cellsShipped},
			{"optima_remote_results_total", "cell results accepted from workers", &f.n.results},
			{"optima_remote_duplicates_total", "late or duplicate worker results dropped (first result wins)", &f.n.duplicates},
			{"optima_remote_retries_total", "cells re-shipped to idle workers (work stealing)", &f.n.retries},
			{"optima_remote_reassignments_total", "cells reassigned off dead workers", &f.n.reassignments},
			{"optima_remote_local_fallbacks_total", "cells evaluated locally because no workers were connected", &f.n.fallbacks},
			{"optima_remote_rejected_total", "workers refused in the handshake (protocol or fingerprint mismatch)", &f.n.rejected},
			{"optima_remote_bytes_sent_total", "frame bytes sent to workers", &f.n.bytesSent},
			{"optima_remote_bytes_received_total", "frame bytes received from workers", &f.n.bytesReceived},
		} {
			reg.CounterOf(c.name, c.help, c.v)
		}
		reg.GaugeFunc("optima_remote_workers", "currently connected workers",
			func() float64 { return float64(f.WorkerCount()) })
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the coordinator's listen address — the value workers pass
// to -connect.
func (f *Fleet) Addr() string { return f.ln.Addr().String() }

// WorkerCount returns the number of currently connected workers.
func (f *Fleet) WorkerCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.workers)
}

// Stats returns a snapshot of the coordinator's accounting.
func (f *Fleet) Stats() FleetStats {
	return FleetStats{
		Workers:        f.WorkerCount(),
		CellsShipped:   f.n.cellsShipped.Load(),
		Results:        f.n.results.Load(),
		Duplicates:     f.n.duplicates.Load(),
		Retries:        f.n.retries.Load(),
		Reassignments:  f.n.reassignments.Load(),
		LocalFallbacks: f.n.fallbacks.Load(),
		Rejected:       f.n.rejected.Load(),
		BytesSent:      f.n.bytesSent.Load(),
		BytesReceived:  f.n.bytesReceived.Load(),
	}
}

// Close shuts the coordinator down: the listener closes, every worker
// connection is dropped (their in-flight cells resolve through the local
// fallback), and Close blocks until the accept loop and every reader have
// exited. Safe to call more than once.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	ws := append([]*workerConn(nil), f.workers...)
	f.mu.Unlock()
	err := f.ln.Close()
	for _, w := range ws {
		w.conn.Close()
	}
	f.wg.Wait()
	return err
}

// dispatch is one in-flight batch: the jobs, their per-cell shipment
// state, and the resolution callback. Cells resolve exactly once, first
// result wins; done closes once the last cell's onDone has returned.
type dispatch struct {
	id      uint64
	fleet   *Fleet
	ev      engine.Eval    // the engine's context; budget for local fallback
	local   engine.Backend // evaluates cells when no worker can
	backend string         // local's name, shipped in batch frames
	jobs    []engine.Job
	hashes  []uint64
	span    obs.SpanID
	onDone  func(i int, met engine.Metrics, err error)

	mu         sync.Mutex
	cells      []dispCell
	unresolved int
	done       chan struct{}
}

// dispCell tracks one cell's shipment state.
type dispCell struct {
	resolved bool
	ships    int
	owners   []uint64 // worker IDs the cell is outstanding on
}

// shardIndex maps a key hash onto [0, n) by range: the upper 32 bits of
// the hash scaled into n equal segments. Contiguous hash ranges land on
// the same worker, so a worker repeatedly sees the same key region —
// store/trim affinity — and the mapping is a pure function of (hash, n):
// identical across processes and runs.
func shardIndex(hash uint64, n int) int {
	return int((hash >> 32) * uint64(n) >> 32)
}

// EvaluateJobs implements engine.Dispatcher: the whole miss set of one
// engine batch, shipped across the fleet by key-range and resolved through
// onDone exactly once per cell. Cells travel under backend's name, so
// cache and store keys are identical to a purely local run. Zero connected
// workers is not an error: the batch evaluates on backend through
// engine.Local, surfaced via the log and the local-fallback counter
// (graceful degradation).
func (f *Fleet) EvaluateJobs(ev engine.Eval, backend engine.Backend, jobs []engine.Job, onDone func(i int, met engine.Metrics, err error)) {
	if len(jobs) == 0 {
		return
	}
	bname := backend.Name()
	d := &dispatch{
		fleet:   f,
		ev:      ev,
		local:   backend,
		backend: bname,
		jobs:    jobs,
		hashes:  make([]uint64, len(jobs)),
		cells:   make([]dispCell, len(jobs)),
		done:    make(chan struct{}),
		onDone:  onDone,
	}
	for i, j := range jobs {
		d.hashes[i] = engine.Key{Backend: bname, Job: j}.Hash()
	}
	d.unresolved = len(jobs)

	f.mu.Lock()
	f.nextDisp++
	d.id = f.nextDisp
	f.dispatches[d.id] = d
	ws := append([]*workerConn(nil), f.workers...)
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.dispatches, d.id)
		f.mu.Unlock()
	}()

	var arg string
	if f.rec != nil {
		arg = fmt.Sprintf("%s: %d cells, %d workers", bname, len(jobs), len(ws))
	}
	// ev.Parent is the engine's batch span, a span of ev.Rec: the dispatch
	// nests under it when the fleet records there too, else it is a root.
	var parent obs.SpanID
	if ev.Rec == f.rec {
		parent = ev.Parent
	}
	span := f.rec.StartSpan(parent, obs.CatRemote, "dispatch", arg)
	d.span = span.ID()
	defer span.End()

	if len(ws) == 0 {
		all := make([]int, len(jobs))
		for i := range all {
			all[i] = i
		}
		f.localFallback(d, all, "no connected workers")
	} else {
		// Key-range assignment over the join-order worker list: cell i goes
		// to the worker owning its hash segment. Indexes accumulate in
		// ascending order, so each worker's batch frame is deterministic.
		perWorker := make([][]int, len(ws))
		for i := range jobs {
			w := shardIndex(d.hashes[i], len(ws))
			perWorker[w] = append(perWorker[w], i)
		}
		for wi, idxs := range perWorker {
			if len(idxs) > 0 {
				f.ship(d, ws[wi], idxs, false)
			}
		}
	}

	ctx := ev.Context()
	select {
	case <-d.done:
	case <-ctx.Done():
		// Unstarted cells are abandoned with the cancellation cause — the
		// engine releases their claims, nothing is memoized. Results that
		// arrive later are dropped as duplicates.
		cause := ctx.Err()
		for i := range jobs {
			d.resolve(uint32(i), engine.Metrics{}, fmt.Errorf("remote: dispatch canceled: %w", cause), 0, nil)
		}
		<-d.done
	}
}

// ship marks idxs outstanding on w and writes one batch frame. The cells
// are marked BEFORE the write, so any failure path — the worker died
// between snapshot and ship, or the write itself broke — finds them owned
// by a dead worker and reassigns them through the uniform reassignFrom
// path; no interleaving can strand a cell. steal re-ships cells that are
// already outstanding elsewhere.
func (f *Fleet) ship(d *dispatch, w *workerConn, idxs []int, steal bool) {
	cells := make([]batchCell, 0, len(idxs))
	d.mu.Lock()
	for _, i := range idxs {
		c := &d.cells[i]
		if c.resolved {
			continue
		}
		c.ships++
		c.owners = append(c.owners, w.id)
		cells = append(cells, batchCell{Index: uint32(i), Job: d.jobs[i]})
	}
	d.mu.Unlock()
	if len(cells) == 0 {
		return
	}
	if w.dead.Load() {
		f.reassignAfterFailedShip(d, w)
		return
	}
	frame := appendBatch(nil, batchFrame{Dispatch: d.id, Backend: d.backend, Cells: cells})

	var arg string
	if f.rec != nil {
		arg = fmt.Sprintf("worker %d: %d cells", w.id, len(cells))
	}
	name := "ship"
	if steal {
		name = "re-ship"
	}
	sspan := f.rec.StartSpan(d.span, obs.CatRemote, name, arg)
	w.wmu.Lock()
	_, err := w.conn.Write(frame)
	w.wmu.Unlock()
	sspan.End()
	if err != nil {
		// dropWorker reassigns everything w owned — unless another path
		// already dropped it before our cells were marked, in which case
		// the explicit reassign below picks them up (it no-ops on cells a
		// concurrent reassignment already moved).
		f.dropWorker(w, fmt.Errorf("write: %w", err))
		f.reassignAfterFailedShip(d, w)
		return
	}
	f.n.cellsShipped.Add(uint64(len(cells)))
	f.n.bytesSent.Add(uint64(len(frame)))
	if steal {
		f.n.retries.Add(uint64(len(cells)))
	}
}

// reassignAfterFailedShip reroutes d's cells owned by the dead worker w
// against a fresh snapshot of the live worker set.
func (f *Fleet) reassignAfterFailedShip(d *dispatch, w *workerConn) {
	f.mu.Lock()
	remaining := append([]*workerConn(nil), f.workers...)
	f.mu.Unlock()
	f.reassignFrom(d, w, remaining)
}

// resolve settles one cell, first result wins. from is the worker that
// produced the result (nil for local fallback and cancellation); a
// worker going idle triggers the slow-owner steal check. A cell counts as
// settled only once its onDone has returned, so done — and with it
// EvaluateJobs — never finishes while another resolver's callback is
// still running.
func (d *dispatch) resolve(idx uint32, met engine.Metrics, err error, durNS uint64, from *workerConn) {
	d.mu.Lock()
	if int(idx) >= len(d.cells) || d.cells[idx].resolved {
		d.mu.Unlock()
		if from != nil {
			d.fleet.n.duplicates.Add(1)
		}
		return
	}
	d.cells[idx].resolved = true
	d.mu.Unlock()

	if err == nil {
		// The wire carries only the seven metric words; Config and Cond
		// duplicate the job by construction, exactly like the store codec.
		met.Config = d.jobs[idx].Config
		met.Cond = d.jobs[idx].Cond
	}
	if from != nil {
		d.fleet.n.results.Add(1)
		var arg string
		if d.fleet.rec != nil {
			arg = fmt.Sprintf("worker %d: %v @ %v", from.id, d.jobs[idx].Config, d.jobs[idx].Cond)
		}
		d.fleet.rec.AddSpan(d.span, obs.CatEval, d.backend+"@remote", arg, time.Duration(durNS))
	}
	d.onDone(int(idx), met, err)
	d.mu.Lock()
	d.unresolved--
	last := d.unresolved == 0
	d.mu.Unlock()
	if last {
		close(d.done)
		return
	}
	if from != nil {
		d.maybeSteal(from)
	}
}

// maybeSteal re-ships work to w when it has drained its own share of this
// dispatch while another worker still owns two or more unresolved cells:
// the slow-worker half of "dead or slow workers get their in-flight
// cells reassigned". The steal takes the later half of the busiest
// owner's single-shipped cells; first result wins and the loser is
// dropped as a duplicate (sound because backends are deterministic —
// both copies compute identical metrics). Each cell is re-shipped at
// most once (ships capped at 2), so a pathological fleet cannot amplify
// work unboundedly.
func (d *dispatch) maybeSteal(w *workerConn) {
	d.mu.Lock()
	perOwner := map[uint64][]int{}
	for i := range d.cells {
		c := &d.cells[i]
		if c.resolved {
			continue
		}
		for _, owner := range c.owners {
			perOwner[owner] = append(perOwner[owner], i)
		}
	}
	if len(perOwner[w.id]) > 0 {
		d.mu.Unlock()
		return // w still has outstanding cells; nothing to steal yet
	}
	busiest, busiestN := uint64(0), 0
	for owner, idxs := range perOwner {
		// Deterministic victim choice: strictly more cells wins, ties go to
		// the lower worker ID (map order must not pick the victim).
		if len(idxs) > busiestN || (len(idxs) == busiestN && busiestN > 0 && owner < busiest) {
			busiest, busiestN = owner, len(idxs)
		}
	}
	if busiestN < 2 {
		d.mu.Unlock()
		return
	}
	victim := perOwner[busiest]
	sort.Ints(victim)
	var take []int
	for _, i := range victim[len(victim)/2:] {
		if d.cells[i].ships < 2 {
			take = append(take, i)
		}
	}
	d.mu.Unlock()
	if len(take) > 0 {
		d.fleet.ship(d, w, take, true)
	}
}

// dropWorker removes w from the fleet and reassigns every unresolved cell
// it owned: to the remaining workers by key-range when any are left,
// otherwise to the local fallback — losing the whole fleet mid-batch
// degrades, it does not fail.
func (f *Fleet) dropWorker(w *workerConn, cause error) {
	if !w.dead.CompareAndSwap(false, true) {
		return
	}
	w.conn.Close()
	f.mu.Lock()
	for i, lw := range f.workers {
		if lw == w {
			f.workers = append(f.workers[:i], f.workers[i+1:]...)
			break
		}
	}
	remaining := append([]*workerConn(nil), f.workers...)
	ids := make([]uint64, 0, len(f.dispatches))
	for id := range f.dispatches {
		ids = append(ids, id)
	}
	active := make([]*dispatch, 0, len(ids))
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		active = append(active, f.dispatches[id])
	}
	closed := f.closed
	f.mu.Unlock()
	if !closed {
		f.log.Warn("remote: worker lost", "worker", w.id, "cause", cause, "remaining", len(remaining))
	}

	for _, d := range active {
		f.reassignFrom(d, w, remaining)
	}
}

// reassignFrom moves d's unresolved cells off the dead worker w. A cell
// still outstanding on another live worker needs nothing — its surviving
// copy will resolve it.
func (f *Fleet) reassignFrom(d *dispatch, w *workerConn, remaining []*workerConn) {
	// Filter racing deaths out of the snapshot: a target that is already
	// dead would bounce the cells straight back here.
	surviving := remaining[:0:0]
	for _, lw := range remaining {
		if !lw.dead.Load() {
			surviving = append(surviving, lw)
		}
	}
	remaining = surviving
	live := map[uint64]bool{}
	for _, lw := range remaining {
		live[lw.id] = true
	}
	d.mu.Lock()
	orphaned := make([]int, 0)
	for i := range d.cells {
		c := &d.cells[i]
		if c.resolved {
			continue
		}
		owned := false
		alive := false
		kept := c.owners[:0]
		for _, owner := range c.owners {
			if owner == w.id {
				owned = true
				continue
			}
			kept = append(kept, owner)
			if live[owner] {
				alive = true
			}
		}
		c.owners = kept
		if owned && !alive {
			orphaned = append(orphaned, i)
		}
	}
	d.mu.Unlock()
	if len(orphaned) == 0 {
		return
	}
	f.n.reassignments.Add(uint64(len(orphaned)))

	if len(remaining) == 0 {
		f.localFallback(d, orphaned, "all workers lost mid-batch")
		return
	}
	perWorker := make([][]int, len(remaining))
	for _, i := range orphaned {
		wi := shardIndex(d.hashes[i], len(remaining))
		perWorker[wi] = append(perWorker[wi], i)
	}
	for wi, idxs := range perWorker {
		if len(idxs) > 0 {
			f.ship(d, remaining[wi], idxs, false)
		}
	}
}

// localFallback evaluates idxs on the coordinator through engine.Local —
// the graceful-degradation path for a fleet with no (or no surviving)
// workers. Local splits the engine's worker budget across the cells and
// recovers a panicking backend into the cell's error, so the dispatch
// always completes.
func (f *Fleet) localFallback(d *dispatch, idxs []int, why string) {
	f.n.fallbacks.Add(uint64(len(idxs)))
	f.log.Warn("remote: degrading to local evaluation", "cause", why,
		"backend", d.backend, "cells", len(idxs))
	var arg string
	if f.rec != nil {
		arg = fmt.Sprintf("%s: %d cells", d.backend, len(idxs))
	}
	span := f.rec.StartSpan(d.span, obs.CatRemote, "local-fallback", arg)
	jobs := make([]engine.Job, len(idxs))
	for k, i := range idxs {
		jobs[k] = d.jobs[i]
	}
	engine.Local{}.EvaluateJobs(d.ev, d.local, jobs, func(k int, met engine.Metrics, err error) {
		d.resolve(uint32(idxs[k]), met, err, 0, nil)
	})
	span.End()
}

// acceptLoop admits workers until the listener closes.
func (f *Fleet) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.wg.Add(1)
		go f.handshake(conn)
	}
}

// handshake validates a dialing worker's hello (protocol version and
// calibration fingerprint), replies with a welcome, and on acceptance
// registers the worker and runs its read loop. A rejected worker gets
// the reason in its welcome frame — its operator sees why, instead of a
// silent drop.
func (f *Fleet) handshake(conn net.Conn) {
	defer f.wg.Done()
	r := bufio.NewReader(conn)
	typ, payload, n, err := readFrame(r)
	if err != nil || typ != frameHello {
		conn.Close()
		return
	}
	f.n.bytesReceived.Add(uint64(n))
	hello, err := decodeHello(payload)
	reject := ""
	switch {
	case err != nil:
		reject = fmt.Sprintf("bad hello: %v", err)
	case hello.Proto != protoVersion:
		reject = fmt.Sprintf("protocol version %d, coordinator speaks %d", hello.Proto, protoVersion)
	case hello.Fingerprint != f.fingerprint:
		reject = "calibration fingerprint mismatch: recalibrate the worker with the coordinator's model"
	}
	frame := appendWelcome(nil, welcomeFrame{Reject: reject})
	if _, werr := conn.Write(frame); werr != nil || reject != "" {
		if reject != "" {
			f.n.rejected.Add(1)
			f.log.Warn("remote: worker rejected", "addr", conn.RemoteAddr().String(), "reason", reject)
		}
		conn.Close()
		return
	}
	f.n.bytesSent.Add(uint64(len(frame)))

	w := &workerConn{conn: conn, capacity: int(hello.Capacity)}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		conn.Close()
		return
	}
	f.nextWorker++
	w.id = f.nextWorker
	f.workers = append(f.workers, w)
	n2 := len(f.workers)
	f.mu.Unlock()
	f.log.Info("remote: worker joined", "worker", w.id,
		"addr", conn.RemoteAddr().String(), "capacity", w.capacity, "workers", n2)
	f.readLoop(w, r)
}

// readLoop consumes one worker's result stream until the connection
// breaks, then drops the worker (reassigning its in-flight cells).
func (f *Fleet) readLoop(w *workerConn, r *bufio.Reader) {
	for {
		typ, payload, n, err := readFrame(r)
		if err != nil {
			f.dropWorker(w, err)
			return
		}
		f.n.bytesReceived.Add(uint64(n))
		if typ != frameResult {
			f.dropWorker(w, fmt.Errorf("unexpected frame type %d", typ))
			return
		}
		res, err := decodeResult(payload)
		if err != nil {
			f.dropWorker(w, err)
			return
		}
		f.mu.Lock()
		d := f.dispatches[res.Dispatch]
		f.mu.Unlock()
		if d == nil {
			f.n.duplicates.Add(1) // dispatch finished or canceled; late result
			continue
		}
		var rerr error
		if res.Status == resultErr {
			rerr = fmt.Errorf("remote: worker %d: %s", w.id, res.Err)
		}
		d.resolve(res.Index, res.Met, rerr, res.DurNS, w)
	}
}
