package remote

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"

	"optima/internal/engine"
	"optima/internal/obs"
)

// WorkerOptions configures Dial.
type WorkerOptions struct {
	// Fingerprint is the worker's calibration fingerprint, validated by
	// the coordinator's handshake — a worker calibrated differently from
	// the coordinator is rejected, never silently mixed in.
	Fingerprint string
	// Backends resolves a batch frame's backend name to a local backend.
	// Called at most once per distinct name per worker; the result is
	// cached. A resolution error fails every cell of batches naming it.
	Backends func(name string) (engine.Backend, error)
	// Workers bounds concurrent cell evaluations (<= 0 = 1). It is also
	// the capacity advertised in the handshake, and the worker budget a
	// single-cell batch spends inside its cell.
	Workers int
	// Logger receives lifecycle events (nil = slog.Default()).
	Logger *slog.Logger
	// Recorder, when non-nil, collects worker-side evaluation spans and
	// provides the clock for the per-cell durations round-tripped in
	// result frames. Nil records nothing and reports zero durations.
	Recorder *obs.Recorder
}

// ErrRejected wraps a handshake rejection: the coordinator named a reason
// (fingerprint or protocol mismatch) and the worker must not retry
// without fixing it.
var ErrRejected = errors.New("remote: worker rejected by coordinator")

// Worker is one connected evaluation worker: it pulls batch frames off
// the coordinator connection, evaluates each cell on the named local
// backend, and streams result frames back as cells finish.
type Worker struct {
	conn     net.Conn
	opts     WorkerOptions
	log      *slog.Logger
	rec      *obs.Recorder
	capacity int
	sem      chan struct{}

	wmu sync.Mutex // serializes result-frame writes

	bmu      sync.Mutex
	backends map[string]resolved

	donec  chan struct{}
	closed sync.Once
}

// Dial connects to a coordinator, performs the hello/welcome handshake,
// and starts the evaluation loop. A rejection surfaces as an error
// wrapping ErrRejected with the coordinator's reason.
func Dial(addr string, opts WorkerOptions) (*Worker, error) {
	if opts.Backends == nil {
		return nil, fmt.Errorf("remote: WorkerOptions.Backends is required")
	}
	capacity := opts.Workers
	if capacity <= 0 {
		capacity = 1
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	hello := appendHello(nil, helloFrame{
		Proto:       protoVersion,
		Fingerprint: opts.Fingerprint,
		Capacity:    uint32(capacity),
	})
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: handshake write: %w", err)
	}
	r := bufio.NewReader(conn)
	typ, payload, _, err := readFrame(r, maxWelcomeLen)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: handshake read: %w", err)
	}
	if typ != frameWelcome {
		conn.Close()
		return nil, fmt.Errorf("remote: handshake: unexpected frame type %d", typ)
	}
	welcome, err := decodeWelcome(payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: handshake: %w", err)
	}
	if welcome.Reject != "" {
		conn.Close()
		return nil, fmt.Errorf("%w: %s", ErrRejected, welcome.Reject)
	}
	log := opts.Logger
	if log == nil {
		log = slog.Default()
	}
	w := &Worker{
		conn:     conn,
		opts:     opts,
		log:      log,
		rec:      opts.Recorder,
		capacity: capacity,
		sem:      make(chan struct{}, capacity),
		backends: map[string]resolved{},
		donec:    make(chan struct{}),
	}
	go w.readLoop(r)
	return w, nil
}

// Close drops the connection. In-flight evaluations finish but their
// results are discarded (the coordinator reassigns them), and queued cells
// never start; Close does not wait for them.
func (w *Worker) Close() error {
	var err error
	w.closed.Do(func() { err = w.conn.Close() })
	return err
}

// Wait blocks until the connection is gone: coordinator shutdown, a
// network failure, or Close. cmd/optima-worker's reconnect loop sits on it.
func (w *Worker) Wait() {
	<-w.donec
}

// readLoop consumes batch frames until the connection breaks. Each batch
// evaluates on its own goroutine so a long batch never blocks the intake
// of the next frame.
func (w *Worker) readLoop(r *bufio.Reader) {
	defer close(w.donec)
	for {
		typ, payload, _, err := readFrame(r, maxFrameLen)
		if err != nil {
			w.Close()
			return
		}
		if typ != frameBatch {
			w.log.Warn("remote: unexpected frame from coordinator", "type", typ)
			w.Close()
			return
		}
		batch, err := decodeBatch(payload)
		if err != nil {
			w.log.Warn("remote: bad batch frame", "err", err)
			w.Close()
			return
		}
		go w.runBatch(batch)
	}
}

// resolved is one backend name's resolution, its error included.
type resolved struct {
	b   engine.Backend
	err error
}

// backendFor resolves (and caches) the batch's backend. Errors cache too:
// resolution is deterministic, so a bad name fails the same way per
// batch without re-running the resolver.
func (w *Worker) backendFor(name string) (engine.Backend, error) {
	w.bmu.Lock()
	defer w.bmu.Unlock()
	r, ok := w.backends[name]
	if !ok {
		r.b, r.err = w.opts.Backends(name)
		w.backends[name] = r
	}
	return r.b, r.err
}

// runBatch evaluates one batch's cells under the worker's capacity
// semaphore, streaming each result back as it completes. A single-cell
// batch spends the whole capacity inside the cell — the same budget logic
// as engine.Local for n = 1. Once the connection is gone no further cell
// starts: the coordinator has reassigned them, and nothing would read
// their results.
func (w *Worker) runBatch(batch batchFrame) {
	backend, berr := w.backendFor(batch.Backend)
	intra := 1
	if len(batch.Cells) == 1 {
		intra = w.capacity
	}
	for _, cell := range batch.Cells {
		if berr != nil {
			w.writeResult(resultFrame{
				Dispatch: batch.Dispatch, Index: cell.Index,
				Status: resultErr, Err: berr.Error(),
			})
			continue
		}
		select {
		case w.sem <- struct{}{}:
		case <-w.donec:
			return
		}
		go func(cell batchCell) {
			defer func() { <-w.sem }()
			w.runCell(batch.Dispatch, backend, batch.Backend, cell, intra)
		}(cell)
	}
}

// runCell evaluates one cell and writes its result frame. The duration is
// measured on the recorder's clock (zero without one) — telemetry only,
// round-tripped for the coordinator's trace; a panicking backend is
// recovered into an error result.
func (w *Worker) runCell(dispatchID uint64, backend engine.Backend, bname string, cell batchCell, intra int) {
	var arg string
	if w.rec != nil {
		arg = fmt.Sprintf("%v @ %v", cell.Job.Config, cell.Job.Cond)
	}
	span := w.rec.StartSpan(0, obs.CatEval, bname, arg)
	met, err := evalCell(backend, engine.Eval{Workers: intra, Rec: w.rec, Parent: span.ID()}, cell)
	dur := span.End()

	res := resultFrame{Dispatch: dispatchID, Index: cell.Index, DurNS: uint64(dur)}
	if err != nil {
		res.Status = resultErr
		res.Err = err.Error()
	} else {
		res.Status = resultOK
		res.Met = met
	}
	w.writeResult(res)
}

// evalCell runs the backend with panic recovery.
func evalCell(backend engine.Backend, ev engine.Eval, cell batchCell) (met engine.Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("backend panicked on %v at %v: %v", cell.Job.Config, cell.Job.Cond, r)
		}
	}()
	return backend.EvaluateCell(ev, cell.Job)
}

// writeResult streams one result frame. Write errors are dropped: a dead
// connection means the coordinator has already reassigned our cells, and
// the read loop is tearing the worker down.
func (w *Worker) writeResult(res resultFrame) {
	frame := appendResult(nil, res)
	w.wmu.Lock()
	_, _ = w.conn.Write(frame)
	w.wmu.Unlock()
}
