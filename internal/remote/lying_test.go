package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"optima/internal/codec"
	"optima/internal/engine"
	"optima/internal/obs"
)

// nanBackend evaluates like fakeBackend but reports a NaN EpsMul, so a
// worker running it sends metrics no real backend computes.
type nanBackend struct{ fakeBackend }

func (b *nanBackend) EvaluateCell(ev engine.Eval, j engine.Job) (engine.Metrics, error) {
	met, err := b.fakeBackend.EvaluateCell(ev, j)
	met.EpsMul = math.NaN()
	return met, err
}

// TestFleetRefusesNonFiniteResult: a result frame with a non-finite metric
// fails to decode like any corrupt frame. The worker is dropped, its cells
// are reassigned (here to the local backend, the only one left), and
// nothing non-finite reaches the engine or its store.
func TestFleetRefusesNonFiniteResult(t *testing.T) {
	leakCheck(t)
	fleet := startFleet(t, obs.NewRecorder(obs.RecorderOptions{}))
	startWorker(t, fleet, &nanBackend{fakeBackend{name: "behavioral"}}, 2)
	jobs := testJobs(2)
	store := newMemStore()
	eng := engine.New(&fakeBackend{name: "behavioral"}, 2).WithDispatcher(fleet).WithStore(store)
	got, err := eng.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]engine.Metrics, len(jobs))
	for i, j := range jobs {
		want[i] = fakeMetrics(j.Config, j.Cond)
	}
	metricsEqual(t, got, want)

	store.mu.Lock()
	stored, bad := len(store.m), 0
	for _, met := range store.m {
		if !met.Finite() {
			bad++
		}
	}
	store.mu.Unlock()
	if stored != len(jobs) || bad != 0 {
		t.Fatalf("store holds %d results, %d of them non-finite; want %d finite", stored, bad, len(jobs))
	}
	if st := fleet.Stats(); st.Results != 0 || st.Reassignments != uint64(len(jobs)) || st.LocalFallbacks != uint64(len(jobs)) {
		t.Fatalf("fleet %v: want 0 results, and all %d cells reassigned and evaluated locally", st, len(jobs))
	}
	waitFor(t, time.Second, func() bool { return fleet.WorkerCount() == 0 })
	checkStatsMatchRegistry(t, fleet)
}

// TestFleetRefusesUnownedResult: a connected worker answers the cells of
// the dispatch that were shipped to another worker, with made-up metrics.
// None of them may settle a cell: the liar is dropped, its own cells move
// to the honest worker, and every result is the backend's.
func TestFleetRefusesUnownedResult(t *testing.T) {
	leakCheck(t)
	jobs := testJobs(8)
	ref, err := engine.New(&fakeBackend{name: "behavioral"}, 4).EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	fleet := startFleet(t, nil)
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	startWorker(t, fleet, &fakeBackend{name: "behavioral", gate: gate}, 2)

	// The liar speaks the protocol by hand and joins second.
	conn, err := net.Dial("tcp", fleet.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendHello(nil, helloFrame{Proto: protoVersion, Fingerprint: testFP, Capacity: 2})); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if typ, payload, _, err := readFrame(r, maxWelcomeLen); err != nil || typ != frameWelcome {
		t.Fatalf("liar handshake: type %d, %v", typ, err)
	} else if w, err := decodeWelcome(payload); err != nil || w.Reject != "" {
		t.Fatalf("liar rejected: %q, %v", w.Reject, err)
	}
	waitFor(t, time.Second, func() bool { return fleet.WorkerCount() == 2 })

	eng := engine.New(&fakeBackend{name: "behavioral"}, 2).WithDispatcher(fleet)
	type batchResult struct {
		mets []engine.Metrics
		err  error
	}
	resc := make(chan batchResult, 1)
	go func() {
		mets, err := eng.EvaluateBatch(jobs)
		resc <- batchResult{mets, err}
	}()

	// Batches ship in join order, so the honest worker's cells are out
	// before the liar reads its own batch.
	typ, payload, _, err := readFrame(r, maxFrameLen)
	if err != nil || typ != frameBatch {
		t.Fatalf("liar batch: type %d, %v", typ, err)
	}
	batch, err := decodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	mine := map[uint32]bool{}
	for _, c := range batch.Cells {
		mine[c.Index] = true
	}
	var lies []byte
	for i := range jobs {
		if !mine[uint32(i)] {
			lies = appendResult(lies, resultFrame{Dispatch: batch.Dispatch, Index: uint32(i), Status: resultOK,
				Met: engine.Metrics{EpsMul: 1, EMul: 1e-15, LSBVolt: 1e-3}})
		}
	}
	if len(mine) == 0 || len(lies) == 0 {
		t.Fatalf("test plane gives the liar %d of %d cells; both workers need a share", len(mine), len(jobs))
	}
	if _, err := conn.Write(lies); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadByte(); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Error("the coordinator kept a worker that answered cells it was never shipped")
	}
	conn.Close()
	waitFor(t, 5*time.Second, func() bool { return fleet.WorkerCount() == 1 })
	release()

	res := <-resc
	if res.err != nil {
		t.Fatal(res.err)
	}
	metricsEqual(t, res.mets, ref)
	if n := eng.Stats().Misses; n != uint64(len(jobs)) {
		t.Fatalf("engine misses %d, want %d", n, len(jobs))
	}
}

// TestFleetDropsOversizedHello: a peer whose first header claims a body
// larger than any hello is disconnected at once. The coordinator neither
// allocates the claimed body nor waits for it, and counts the failed
// handshake as a rejection.
func TestFleetDropsOversizedHello(t *testing.T) {
	leakCheck(t)
	fleet := startFleet(t, nil)
	conn, err := net.Dial("tcp", fleet.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var head [codec.HeaderLen]byte
	binary.LittleEndian.PutUint32(head[:], maxFrameLen)
	if _, err := conn.Write(head[:]); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the coordinator waited for the %d-byte body of a hello", maxFrameLen)
	}
	if n := fleet.WorkerCount(); n != 0 {
		t.Fatalf("%d workers joined", n)
	}
	waitFor(t, time.Second, func() bool { return fleet.Stats().Rejected == 1 })
}
