package remote

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/obs"
)

// fakeBackend is a deterministic stand-in for the behavioral backend: the
// metrics are a pure function of (config, condition), so a distributed run
// must reproduce a local run bit for bit. gate, when non-nil, blocks every
// evaluation until the channel closes — the handle the worker-failure test
// uses to keep cells in flight while it kills their owner.
type fakeBackend struct {
	name  string
	gate  chan struct{}
	evals atomic.Uint64
}

func (b *fakeBackend) Name() string { return b.name }

func (b *fakeBackend) EvaluateCell(_ engine.Eval, j engine.Job) (engine.Metrics, error) {
	b.evals.Add(1)
	if b.gate != nil {
		<-b.gate
	}
	return fakeMetrics(j.Config, j.Cond), nil
}

// fakeMetrics derives every metric word from the inputs, with enough
// structure that a swapped cell or a lost sign bit changes some field.
func fakeMetrics(cfg mult.Config, cond device.PVT) engine.Metrics {
	return engine.Metrics{
		Config:       cfg,
		Cond:         cond,
		EpsMul:       cfg.Tau0*1e9 + cond.VDD/3,
		EpsLarge:     cfg.VDAC0 * cond.TempC,
		EpsSmall:     cfg.VDACFS - cond.VDD,
		EMul:         (float64(cond.Corner) + 1) * 21e-15,
		SigmaMaxLSB:  cfg.Tau0 * 1e9 * 0.25,
		SigmaMaxVolt: cond.VDD * 5.04e-3,
		LSBVolt:      cfg.VDACFS / 255,
	}
}

// testJobs builds an n-config × 3-condition cell plane.
func testJobs(n int) []engine.Job {
	conds, err := engine.ParseConditionSet("TT@1.0V@27C,SS@0.90V@60C,FF@1.10V@0C")
	if err != nil {
		panic(err)
	}
	cfgs := make([]mult.Config, n)
	for i := range cfgs {
		cfgs[i] = mult.Config{
			Tau0:   (0.16 + 0.01*float64(i)) * 1e-9,
			VDAC0:  0.3 + 0.001*float64(i%7),
			VDACFS: 1.0 - 0.002*float64(i%5),
		}
	}
	return engine.MatrixJobs(cfgs, conds)
}

const testFP = "test-fingerprint-v1"

// startFleet returns a coordinator listening on an ephemeral port, closed
// with the test.
func startFleet(t testing.TB, rec *obs.Recorder) *Fleet {
	t.Helper()
	f, err := Listen("127.0.0.1:0", Options{Fingerprint: testFP, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// startWorker dials an in-process worker evaluating on backend, closed with
// the test.
func startWorker(t testing.TB, f *Fleet, backend engine.Backend, capacity int) *Worker {
	t.Helper()
	w, err := Dial(f.Addr(), WorkerOptions{
		Fingerprint: testFP,
		Backends: func(name string) (engine.Backend, error) {
			if name != backend.Name() {
				return nil, fmt.Errorf("unknown backend %q", name)
			}
			return backend, nil
		},
		Workers: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	waitFor(t, time.Second, func() bool { return f.WorkerCount() >= 1 })
	return w
}

// checkStatsMatchRegistry pins one home per count: every FleetStats field
// equals its sample in the fleet's registry. Late worker frames may still
// move the counts, so it compares against a Stats snapshot that held still
// across the registry read.
func checkStatsMatchRegistry(t *testing.T, f *Fleet) {
	t.Helper()
	for try := 0; ; try++ {
		before := f.Stats()
		samples := map[string]float64{}
		for _, s := range f.rec.Metrics().Samples() {
			samples[s.Name] = s.Value
		}
		if after := f.Stats(); after != before && try < 100 {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		for name, want := range map[string]uint64{
			"optima_remote_workers":               uint64(before.Workers),
			"optima_remote_cells_shipped_total":   before.CellsShipped,
			"optima_remote_results_total":         before.Results,
			"optima_remote_duplicates_total":      before.Duplicates,
			"optima_remote_retries_total":         before.Retries,
			"optima_remote_reassignments_total":   before.Reassignments,
			"optima_remote_local_fallbacks_total": before.LocalFallbacks,
			"optima_remote_rejected_total":        before.Rejected,
			"optima_remote_bytes_sent_total":      before.BytesSent,
			"optima_remote_bytes_received_total":  before.BytesReceived,
		} {
			if got := samples[name]; got != float64(want) {
				t.Errorf("%s = %v, FleetStats says %d", name, got, want)
			}
		}
		return
	}
}

func waitFor(t testing.TB, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricsEqual compares two result sets for exact equality (== on the flat
// value structs compares every float bit-for-bit except -0 vs 0 and NaN;
// the wire codec's bit-exactness is covered by the wire tests).
func metricsEqual(t *testing.T, got, want []engine.Metrics) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestByteIdentityAcrossWorkerCounts pins the acceptance criterion: the
// same batch through 0, 2 and 4 workers, at different engine budgets, is
// byte-identical to a purely local run.
func TestByteIdentityAcrossWorkerCounts(t *testing.T) {
	leakCheck(t)
	jobs := testJobs(8)
	ref, err := engine.New(&fakeBackend{name: "behavioral"}, 4).EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 2, 4} {
		for _, budget := range []int{1, 3} {
			t.Run(fmt.Sprintf("workers=%d budget=%d", workers, budget), func(t *testing.T) {
				fleet := startFleet(t, nil)
				for i := 0; i < workers; i++ {
					startWorker(t, fleet, &fakeBackend{name: "behavioral"}, 2)
				}
				waitFor(t, time.Second, func() bool { return fleet.WorkerCount() == workers })
				eng := engine.New(&fakeBackend{name: "behavioral"}, budget).WithDispatcher(fleet)
				got, err := eng.EvaluateBatch(jobs)
				if err != nil {
					t.Fatal(err)
				}
				metricsEqual(t, got, ref)
				st := fleet.Stats()
				if workers == 0 {
					if st.CellsShipped != 0 || st.LocalFallbacks != uint64(len(jobs)) {
						t.Fatalf("zero-worker fleet: %v, want %d local fallbacks and 0 shipped", st, len(jobs))
					}
				} else {
					if st.CellsShipped == 0 || st.Results == 0 {
						t.Fatalf("fleet with %d workers shipped nothing: %v", workers, st)
					}
					if st.LocalFallbacks != 0 {
						t.Fatalf("unexpected local fallbacks: %v", st)
					}
				}
				if eng.Stats().Misses != uint64(len(jobs)) {
					t.Fatalf("engine misses %d, want %d (each cell evaluated exactly once)",
						eng.Stats().Misses, len(jobs))
				}
			})
		}
	}
}

// TestZeroWorkersDegradesGracefully: no workers is a logged degradation
// with correct results, not an error — and the obs counter records it.
func TestZeroWorkersDegradesGracefully(t *testing.T) {
	leakCheck(t)
	rec := obs.NewRecorder(obs.RecorderOptions{})
	fleet := startFleet(t, rec)
	jobs := testJobs(2)
	eng := engine.New(&fakeBackend{name: "behavioral"}, 2).WithDispatcher(fleet)
	got, err := eng.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]engine.Metrics, len(jobs))
	for i, j := range jobs {
		want[i] = fakeMetrics(j.Config, j.Cond)
	}
	metricsEqual(t, got, want)
	found := false
	for _, s := range rec.Metrics().Samples() {
		if s.Name == "optima_remote_local_fallbacks_total" && s.Value == float64(len(jobs)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("optima_remote_local_fallbacks_total not %d in %v", len(jobs), rec.Metrics().Samples())
	}
	checkStatsMatchRegistry(t, fleet)
}

// TestFingerprintMismatchRejected: a worker calibrated differently must be
// refused in the handshake with a typed error, and never join the fleet.
func TestFingerprintMismatchRejected(t *testing.T) {
	leakCheck(t)
	fleet := startFleet(t, obs.NewRecorder(obs.RecorderOptions{}))
	_, err := Dial(fleet.Addr(), WorkerOptions{
		Fingerprint: "some-other-calibration",
		Backends: func(string) (engine.Backend, error) {
			return &fakeBackend{name: "behavioral"}, nil
		},
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("mismatched worker got %v, want ErrRejected", err)
	}
	waitFor(t, time.Second, func() bool { return fleet.Stats().Rejected == 1 })
	if n := fleet.WorkerCount(); n != 0 {
		t.Fatalf("rejected worker joined the fleet (%d workers)", n)
	}
	checkStatsMatchRegistry(t, fleet)
}

// memStore is a map-backed engine.Store for the warm-rerun test.
type memStore struct {
	mu sync.Mutex
	m  map[engine.Key]engine.Metrics
}

func newMemStore() *memStore { return &memStore{m: map[engine.Key]engine.Metrics{}} }

func (s *memStore) Get(k engine.Key) (engine.Metrics, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	met, ok := s.m[k]
	return met, ok
}

func (s *memStore) PutBatch(entries []engine.CacheEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		s.m[e.Key] = e.Met
	}
	return nil
}

// TestWarmStoreShipsNothing pins the warm-rerun acceptance criterion: a
// second run over a shared store performs zero remote shipments — the
// store tier resolves every cell before the fleet is consulted.
func TestWarmStoreShipsNothing(t *testing.T) {
	leakCheck(t)
	fleet := startFleet(t, nil)
	startWorker(t, fleet, &fakeBackend{name: "behavioral"}, 2)
	startWorker(t, fleet, &fakeBackend{name: "behavioral"}, 2)
	waitFor(t, time.Second, func() bool { return fleet.WorkerCount() == 2 })

	jobs := testJobs(6)
	store := newMemStore()

	cold := engine.New(&fakeBackend{name: "behavioral"}, 2).WithDispatcher(fleet).WithStore(store)
	coldRes, err := cold.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	shippedCold := fleet.Stats().CellsShipped
	if shippedCold == 0 {
		t.Fatalf("cold run shipped nothing: %v", fleet.Stats())
	}

	// Fresh engine (empty memory cache), same store: everything must come
	// from the store tier, nothing from the wire.
	warm := engine.New(&fakeBackend{name: "behavioral"}, 2).WithDispatcher(fleet).WithStore(store)
	warmRes, err := warm.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	metricsEqual(t, warmRes, coldRes)
	if shipped := fleet.Stats().CellsShipped; shipped != shippedCold {
		t.Fatalf("warm rerun shipped %d cells, want 0", shipped-shippedCold)
	}
	if st := warm.Stats(); st.DiskHits != uint64(len(jobs)) || st.Misses != 0 {
		t.Fatalf("warm engine stats %+v, want %d store hits and 0 evaluations", st, len(jobs))
	}
}

// TestWorkerFailureMidBatch kills a worker while its cells are in flight:
// the coordinator must reassign them to the survivor exactly once, the
// engine must count each cell as exactly one miss, and the final results
// must be byte-identical to an undisturbed run.
func TestWorkerFailureMidBatch(t *testing.T) {
	leakCheck(t)
	jobs := testJobs(8)
	ref, err := engine.New(&fakeBackend{name: "behavioral"}, 4).EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}

	fleet := startFleet(t, obs.NewRecorder(obs.RecorderOptions{}))
	// Worker 1 (first to join, so it owns the low hash ranges) blocks every
	// evaluation on the gate; worker 2 evaluates normally.
	gate := make(chan struct{})
	blocked := &fakeBackend{name: "behavioral", gate: gate}
	defer close(gate) // unblock the stranded evaluation goroutines at exit
	w1 := startWorker(t, fleet, blocked, 2)
	startWorker(t, fleet, &fakeBackend{name: "behavioral"}, 2)
	waitFor(t, time.Second, func() bool { return fleet.WorkerCount() == 2 })

	// Worker 1's share of the plane, by the same key-range split the
	// coordinator uses (join order: worker 1 is index 0 of 2).
	w1Cells := 0
	for _, j := range jobs {
		if shardIndex(engine.Key{Backend: "behavioral", Job: j}.Hash(), 2) == 0 {
			w1Cells++
		}
	}
	if w1Cells == 0 {
		t.Fatal("test plane gives worker 1 no cells; grow the job set")
	}

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

	// Wait until worker 1 has actually started evaluating (its cells are in
	// flight), then kill it mid-batch.
	waitFor(t, 5*time.Second, func() bool { return blocked.evals.Load() > 0 })
	w1.Close()

	res := <-resc
	if res.err != nil {
		t.Fatal(res.err)
	}
	metricsEqual(t, res.mets, ref)

	st := fleet.Stats()
	// Every worker-1 cell was either reassigned at death or stolen by the
	// idle survivor just before it — and each exactly once, never both
	// (a stolen cell keeps a live owner, so reassignment skips it).
	if st.Reassignments+st.Retries != uint64(w1Cells) {
		t.Fatalf("reassigned %d + stolen %d, want exactly %d (worker 1's share): %v",
			st.Reassignments, st.Retries, w1Cells, st)
	}
	if st.Reassignments == 0 && st.Retries == 0 {
		t.Fatalf("worker death went unnoticed: %v", st)
	}
	if eng.Stats().Misses != uint64(len(jobs)) {
		t.Fatalf("engine misses %d, want %d — a reassigned cell double-counted", eng.Stats().Misses, len(jobs))
	}
	waitFor(t, time.Second, func() bool { return fleet.WorkerCount() == 1 })
	checkStatsMatchRegistry(t, fleet)
}

// TestAllWorkersLostMidBatch: losing the whole fleet mid-batch degrades to
// local evaluation, still byte-identical.
func TestAllWorkersLostMidBatch(t *testing.T) {
	leakCheck(t)
	jobs := testJobs(6)
	ref, err := engine.New(&fakeBackend{name: "behavioral"}, 4).EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}

	fleet := startFleet(t, obs.NewRecorder(obs.RecorderOptions{}))
	gate := make(chan struct{})
	blocked := &fakeBackend{name: "behavioral", gate: gate}
	defer close(gate)
	w1 := startWorker(t, fleet, blocked, 2)

	eng := engine.New(&fakeBackend{name: "behavioral"}, 2).WithDispatcher(fleet)
	resc := make(chan []engine.Metrics, 1)
	errc := make(chan error, 1)
	go func() {
		mets, err := eng.EvaluateBatch(jobs)
		if err != nil {
			errc <- err
			return
		}
		resc <- mets
	}()
	waitFor(t, 5*time.Second, func() bool { return blocked.evals.Load() > 0 })
	w1.Close()

	select {
	case err := <-errc:
		t.Fatal(err)
	case mets := <-resc:
		metricsEqual(t, mets, ref)
	case <-time.After(30 * time.Second):
		t.Fatal("batch did not complete after losing the only worker")
	}
	st := fleet.Stats()
	if st.LocalFallbacks != uint64(len(jobs)) {
		t.Fatalf("local fallbacks %d, want %d (the whole batch): %v", st.LocalFallbacks, len(jobs), st)
	}
	checkStatsMatchRegistry(t, fleet)
}

// TestFleetSingleCell: a one-job batch — search promotion, a one-off PVT
// check — ships its cell like any other batch.
func TestFleetSingleCell(t *testing.T) {
	leakCheck(t)
	fleet := startFleet(t, nil)
	startWorker(t, fleet, &fakeBackend{name: "behavioral"}, 2)
	cfg := mult.Config{Tau0: 0.2e-9, VDAC0: 0.31, VDACFS: 0.98}
	cond := device.Nominal()
	eng := engine.New(&fakeBackend{name: "behavioral"}, 2).WithDispatcher(fleet)
	mets, err := eng.EvaluateBatch(engine.Jobs([]mult.Config{cfg}, cond))
	if err != nil {
		t.Fatal(err)
	}
	if want := fakeMetrics(cfg, cond); mets[0] != want {
		t.Fatalf("single cell: got %+v, want %+v", mets[0], want)
	}
	if fleet.Stats().CellsShipped != 1 {
		t.Fatalf("single cell shipped %d cells, want 1", fleet.Stats().CellsShipped)
	}
}

// TestDispatchNestsUnderBatch: with one recorder shared by the engine and
// the fleet, the engine's batch span parents the remote work — the dispatch,
// its ship spans and the worker-reported eval spans — so a subtree of the
// trace (a server job's /trace) includes it.
func TestDispatchNestsUnderBatch(t *testing.T) {
	leakCheck(t)
	rec := obs.NewRecorder(obs.RecorderOptions{})
	fleet := startFleet(t, rec)
	startWorker(t, fleet, &fakeBackend{name: "behavioral"}, 2)
	eng := engine.New(&fakeBackend{name: "behavioral"}, 2).WithDispatcher(fleet).WithRecorder(rec)
	jobs := testJobs(4)
	if _, err := eng.EvaluateBatch(jobs); err != nil {
		t.Fatal(err)
	}
	spans := rec.Snapshot()
	var batch obs.SpanID
	for _, s := range spans {
		if s.Cat == obs.CatBatch {
			batch = s.ID
		}
	}
	var dispatches, ships, remoteEvals int
	for _, s := range obs.Subtree(spans, batch) {
		switch s.Name {
		case "dispatch":
			dispatches++
		case "ship":
			ships++
		case "behavioral@remote":
			remoteEvals++
		}
	}
	if dispatches != 1 || ships == 0 || remoteEvals != len(jobs) {
		t.Fatalf("batch subtree holds %d dispatch, %d ship and %d remote eval spans, want 1, >0 and %d",
			dispatches, ships, remoteEvals, len(jobs))
	}
}
