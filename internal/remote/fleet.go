package remote

import (
	"bufio"
	"cmp"
	"fmt"
	"log/slog"
	"net"
	"slices"
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
	// Rejected counts failed handshakes: a hello that does not read
	// (oversized, corrupt, truncated, another frame type), a protocol or
	// fingerprint mismatch, or a welcome that cannot be written. A
	// connection Close ends mid-handshake is not counted.
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
	joining    map[net.Conn]struct{} // accepted, handshake not yet over
	workers    []*workerConn         // join order; the shard routing domain
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
		joining:     map[net.Conn]struct{}{},
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
			{"optima_remote_rejected_total", "failed worker handshakes (unreadable hello, protocol or fingerprint mismatch)", &f.n.rejected},
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
// fallback), so is every connection still in its handshake, and Close
// blocks until the accept loop and every reader have exited. Safe to call
// more than once.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	for conn := range f.joining {
		conn.Close() // a peer that never sends its hello would block wg.Wait
	}
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
	span    obs.SpanID
	onDone  func(i int, met engine.Metrics, err error)

	mu          sync.Mutex
	cells       []dispCell
	outstanding map[*workerConn]int // per worker: unresolved cells it owns
	unresolved  int
	done        chan struct{}
}

// dispCell tracks one cell's shipment state.
type dispCell struct {
	resolved bool
	ships    int
	owners   []*workerConn // workers the cell is outstanding on
}

// shardIndex maps a key hash onto [0, n) by range: the upper 32 bits of
// the hash scaled into n equal segments. The mapping is a pure function of
// (hash, n), identical across processes and runs. The hash covers the
// condition, so one config's cells can land on different workers, and each
// of them calibrates that config's golden trim.
func shardIndex(hash uint64, n int) int {
	return int((hash >> 32) * uint64(n) >> 32)
}

// EvaluateJobs implements engine.Dispatcher: the whole miss set of one
// engine batch, placed across the fleet by place and resolved through
// onDone exactly once per cell. Cells travel under backend's name, so
// cache and store keys are identical to a purely local run. Zero connected
// workers is not an error: the batch evaluates on backend through
// engine.Local, surfaced via the log and the local-fallback counter
// (graceful degradation).
func (f *Fleet) EvaluateJobs(ev engine.Eval, backend engine.Backend, jobs []engine.Job, onDone func(i int, met engine.Metrics, err error)) {
	if len(jobs) == 0 {
		return
	}
	d := &dispatch{
		fleet:       f,
		ev:          ev,
		local:       backend,
		backend:     backend.Name(),
		jobs:        jobs,
		cells:       make([]dispCell, len(jobs)),
		outstanding: map[*workerConn]int{},
		unresolved:  len(jobs),
		done:        make(chan struct{}),
		onDone:      onDone,
	}

	f.mu.Lock()
	f.nextDisp++
	d.id = f.nextDisp
	f.dispatches[d.id] = d
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.dispatches, d.id)
		f.mu.Unlock()
	}()

	var arg string
	if f.rec != nil {
		arg = fmt.Sprintf("%s: %d cells, %d workers", d.backend, len(jobs), f.WorkerCount())
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

	all := make([]int, len(jobs))
	for i := range all {
		all[i] = i
	}
	f.place(d, all, "no connected workers")

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

// place is the fleet's one placement decision, for a dispatch's first
// shipment and every reassignment off a lost worker. Cell i goes by key
// range (shardIndex of its engine.Key.Hash) to one of the live workers in
// join order, each share in ascending index order, so frames are
// deterministic. A worker with its dead flag set is skipped even before
// dropWorker unlists it, as cells placed there would bounce straight back.
// With no live worker the cells run locally, and why is logged.
func (f *Fleet) place(d *dispatch, idxs []int, why string) {
	f.mu.Lock()
	ws := make([]*workerConn, 0, len(f.workers))
	for _, w := range f.workers {
		if !w.dead.Load() {
			ws = append(ws, w)
		}
	}
	f.mu.Unlock()
	if len(ws) == 0 {
		f.localFallback(d, idxs, why)
		return
	}
	shares := make([][]int, len(ws))
	for _, i := range idxs {
		wi := shardIndex(engine.Key{Backend: d.backend, Job: d.jobs[i]}.Hash(), len(ws))
		shares[wi] = append(shares[wi], i)
	}
	for wi, share := range shares {
		if len(share) > 0 {
			f.ship(d, ws[wi], share, false)
		}
	}
}

// ship marks idxs outstanding on w and writes them in frames of at most
// maxBatchCells, the worker's decoding bound. All cells are marked BEFORE
// the first write, so a worker that died after it was chosen, or a write
// that broke, leaves them owned by a dead worker, and reassignFrom moves
// them; no interleaving can strand a cell. steal re-ships cells
// outstanding elsewhere.
func (f *Fleet) ship(d *dispatch, w *workerConn, idxs []int, steal bool) {
	cells := make([]batchCell, 0, len(idxs))
	d.mu.Lock()
	for _, i := range idxs {
		c := &d.cells[i]
		if c.resolved {
			continue
		}
		c.ships++
		c.owners = append(c.owners, w)
		d.outstanding[w]++
		cells = append(cells, batchCell{Index: uint32(i), Job: d.jobs[i]})
	}
	d.mu.Unlock()
	if len(cells) == 0 {
		return
	}
	if w.dead.Load() {
		f.reassignFrom(d, w)
		return
	}

	var arg string
	if f.rec != nil {
		arg = fmt.Sprintf("worker %d: %d cells", w.id, len(cells))
	}
	name := "ship"
	if steal {
		name = "re-ship"
	}
	sspan := f.rec.StartSpan(d.span, obs.CatRemote, name, arg)
	var err error
	for len(cells) > 0 && err == nil {
		n := min(len(cells), maxBatchCells)
		frame := appendBatch(nil, batchFrame{Dispatch: d.id, Backend: d.backend, Cells: cells[:n]})
		cells = cells[n:]
		w.wmu.Lock()
		_, err = w.conn.Write(frame)
		w.wmu.Unlock()
		if err == nil {
			f.n.cellsShipped.Add(uint64(n))
			f.n.bytesSent.Add(uint64(len(frame)))
			if steal {
				f.n.retries.Add(uint64(n))
			}
		}
	}
	sspan.End()
	if err != nil {
		// dropWorker reassigns everything w owned — unless another path
		// already dropped it before our cells were marked, in which case
		// the explicit reassign below picks them up (it no-ops on cells a
		// concurrent reassignment already moved).
		f.dropWorker(w, fmt.Errorf("write: %w", err))
		f.reassignFrom(d, w)
	}
}

// resolve settles one cell, first result wins. from is the worker that
// produced the result (nil for local fallback and cancellation); a
// worker going idle triggers the slow-owner steal check. A cell counts as
// settled only once its onDone has returned, so done — and with it
// EvaluateJobs — never finishes while another resolver's callback is
// still running.
//
// A worker's result counts only for a cell it was shipped and still owns.
// An honest worker never answers any other, so one that does is lying or
// broken: it is a protocol violation, and the worker is dropped and its
// cells reassigned rather than trusted with the rest. (A worker already
// dropped may still have results in flight; dropping it again is a no-op.)
func (d *dispatch) resolve(idx uint32, met engine.Metrics, err error, durNS uint64, from *workerConn) {
	d.mu.Lock()
	if from != nil && (int(idx) >= len(d.cells) || !slices.Contains(d.cells[idx].owners, from)) {
		d.mu.Unlock()
		d.fleet.dropWorker(from, fmt.Errorf("result for cell %d of dispatch %d, which it was never shipped", idx, d.id))
		return
	}
	if d.cells[idx].resolved {
		d.mu.Unlock()
		if from != nil {
			d.fleet.n.duplicates.Add(1)
		}
		return
	}
	d.cells[idx].resolved = true
	for _, owner := range d.cells[idx].owners {
		d.outstanding[owner]--
	}
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
	if d.outstanding[w] > 0 {
		d.mu.Unlock()
		return // w still has outstanding cells; nothing to steal yet
	}
	var busiest *workerConn
	busiestN := 0
	for owner, n := range d.outstanding {
		// Deterministic victim choice: strictly more cells wins, ties go to
		// the lower worker ID (map order must not pick the victim).
		if n > busiestN || (n == busiestN && busiestN > 0 && owner.id < busiest.id) {
			busiest, busiestN = owner, n
		}
	}
	if busiestN < 2 {
		d.mu.Unlock()
		return
	}
	var victim []int // ascending
	for i := range d.cells {
		if c := &d.cells[i]; !c.resolved && slices.Contains(c.owners, busiest) {
			victim = append(victim, i)
		}
	}
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

// dropWorker marks w dead, unlists it and reassigns its unresolved cells
// in every active dispatch, oldest first. The flag is set before the
// unlisting, so place never chooses a worker on its way out; with no worker
// left, losing the whole fleet mid-batch degrades to local, it does not fail.
func (f *Fleet) dropWorker(w *workerConn, cause error) {
	if !w.dead.CompareAndSwap(false, true) {
		return
	}
	w.conn.Close()
	f.mu.Lock()
	f.workers = slices.DeleteFunc(f.workers, func(lw *workerConn) bool { return lw == w })
	remaining := len(f.workers)
	active := make([]*dispatch, 0, len(f.dispatches))
	for _, d := range f.dispatches {
		active = append(active, d)
	}
	closed := f.closed
	f.mu.Unlock()
	slices.SortFunc(active, func(a, b *dispatch) int { return cmp.Compare(a.id, b.id) })
	if !closed {
		f.log.Warn("remote: worker lost", "worker", w.id, "cause", cause, "remaining", remaining)
	}

	for _, d := range active {
		f.reassignFrom(d, w)
	}
}

// reassignFrom takes the dead worker w off d's unresolved cells and sends
// those left with no live owner back through place; a cell still
// outstanding on a live worker will resolve there. A cell moved once no
// longer lists w, so each loss reassigns it once.
func (f *Fleet) reassignFrom(d *dispatch, w *workerConn) {
	live := func(o *workerConn) bool { return !o.dead.Load() }
	var orphaned []int
	d.mu.Lock()
	for i := range d.cells {
		c := &d.cells[i]
		if c.resolved || !slices.Contains(c.owners, w) {
			continue
		}
		n := len(c.owners)
		c.owners = slices.DeleteFunc(c.owners, func(o *workerConn) bool { return o == w })
		d.outstanding[w] -= n - len(c.owners)
		if !slices.ContainsFunc(c.owners, live) {
			orphaned = append(orphaned, i)
		}
	}
	d.mu.Unlock()
	if len(orphaned) == 0 {
		return
	}
	f.n.reassignments.Add(uint64(len(orphaned)))
	f.place(d, orphaned, "all workers lost mid-batch")
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

// handshake admits a dialing worker: greet validates its hello, and an
// accepted worker is registered and runs its read loop. Until then the
// connection is in joining, so Close can end a peer that never speaks.
func (f *Fleet) handshake(conn net.Conn) {
	defer f.wg.Done()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		conn.Close()
		return
	}
	f.joining[conn] = struct{}{}
	f.mu.Unlock()

	w, r := f.greet(conn)
	f.mu.Lock()
	delete(f.joining, conn)
	if w == nil || f.closed {
		f.mu.Unlock()
		conn.Close()
		return
	}
	f.nextWorker++
	w.id = f.nextWorker
	f.workers = append(f.workers, w)
	n := len(f.workers)
	f.mu.Unlock()
	f.log.Info("remote: worker joined", "worker", w.id,
		"addr", conn.RemoteAddr().String(), "capacity", w.capacity, "workers", n)
	f.readLoop(w, r)
}

// greet validates a dialing worker's hello (protocol version and
// calibration fingerprint) and replies with a welcome; it returns the
// accepted worker, or nil. A worker refused for its hello gets the reason
// in its welcome frame — its operator sees why, instead of a silent drop.
// A hello that does not read (oversized, corrupt, truncated, another frame
// type) gets no welcome. Either way the failed handshake is refused.
func (f *Fleet) greet(conn net.Conn) (*workerConn, *bufio.Reader) {
	r := bufio.NewReader(conn)
	typ, payload, n, err := readFrame(r, maxHelloLen)
	if err == nil && typ != frameHello {
		err = fmt.Errorf("frame type %d", typ)
	}
	if err != nil {
		f.refuse(conn, fmt.Sprintf("no hello: %v", err))
		return nil, nil
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
	_, werr := conn.Write(frame)
	switch {
	case reject != "":
		f.refuse(conn, reject)
	case werr != nil:
		f.refuse(conn, fmt.Sprintf("welcome: %v", werr))
	default:
		f.n.bytesSent.Add(uint64(len(frame)))
		return &workerConn{conn: conn, capacity: int(hello.Capacity)}, r
	}
	return nil, nil
}

// refuse counts a failed handshake in Rejected and logs it at Warn with
// the peer's address and the cause, unless Close ended the connection:
// shutdown is not a rejection.
func (f *Fleet) refuse(conn net.Conn, cause string) {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return
	}
	f.n.rejected.Add(1)
	f.log.Warn("remote: worker rejected", "addr", conn.RemoteAddr().String(), "reason", cause)
}

// readLoop consumes one worker's result stream until the connection
// breaks, then drops the worker (reassigning its in-flight cells). A frame
// that does not decode as a result (corrupt, over maxResultLen, non-finite
// metrics) drops the worker too, as does a result for a cell it was never
// shipped (see resolve).
func (f *Fleet) readLoop(w *workerConn, r *bufio.Reader) {
	for {
		typ, payload, n, err := readFrame(r, maxResultLen)
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
