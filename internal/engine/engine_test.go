package engine

import (
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/mult"
)

// fakeBackend synthesizes metrics from the configuration and counts real
// evaluations, so cache accounting is observable.
type fakeBackend struct {
	evals atomic.Int64
	fail  mult.Config // evaluating this config errors (zero value = never)
}

func (f *fakeBackend) Name() string { return "fake" }

func (f *fakeBackend) EvaluateCell(_ Eval, j Job) (Metrics, error) {
	f.evals.Add(1)
	if j.Config == f.fail {
		return Metrics{}, errors.New("synthetic corner failure")
	}
	return Metrics{
		Config: j.Config,
		Cond:   j.Cond,
		EpsMul: j.Config.Tau0 * 1e9,
		EMul:   j.Config.VDACFS * 1e-15,
	}, nil
}

// evaluateOne submits a single job as a one-job batch.
func evaluateOne(eng *Engine, cfg mult.Config, cond device.PVT) (Metrics, error) {
	mets, err := eng.EvaluateBatch([]Job{{Config: cfg, Cond: cond}})
	if err != nil {
		return Metrics{}, err
	}
	return mets[0], nil
}

func testJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Config: mult.Config{Tau0: float64(i+1) * 0.1e-9, VDAC0: 0.3, VDACFS: 1.0},
			Cond:   device.Nominal(),
		}
	}
	return jobs
}

func TestCacheHitMissAccounting(t *testing.T) {
	fake := &fakeBackend{}
	eng := New(fake, 4)
	jobs := testJobs(12)

	cold, err := eng.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 12 {
		t.Fatalf("cold sweep ran %d backend evaluations, want 12", got)
	}
	st := eng.Stats()
	if st.Misses != 12 || st.Hits != 0 || st.Entries != 12 {
		t.Fatalf("cold stats %+v, want 12 misses / 0 hits / 12 entries", st)
	}

	warm, err := eng.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 12 {
		t.Fatalf("warm sweep re-ran the backend: %d evaluations", got)
	}
	st = eng.Stats()
	if st.Misses != 12 || st.Hits != 12 {
		t.Fatalf("warm stats %+v, want 12 misses / 12 hits", st)
	}
	for i := range jobs {
		if cold[i] != warm[i] {
			t.Fatalf("cached result %d differs from cold result", i)
		}
	}
}

func TestConcurrentSubmissionSingleflight(t *testing.T) {
	fake := &fakeBackend{}
	eng := New(fake, 0)
	jobs := testJobs(4)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				m, err := evaluateOne(eng, j.Config, j.Cond)
				if err != nil {
					t.Error(err)
					return
				}
				if m.Config != j.Config {
					t.Errorf("result for wrong config: %v", m.Config)
					return
				}
			}
		}()
	}
	wg.Wait()
	// 16 goroutines × 4 jobs, but only 4 distinct keys: every duplicate must
	// have shared the in-flight or cached evaluation.
	if got := fake.evals.Load(); got != 4 {
		t.Fatalf("%d backend evaluations, want 4", got)
	}
	st := eng.Stats()
	if st.Misses != 4 || st.Hits != 60 {
		t.Fatalf("stats %+v, want 4 misses / 60 hits", st)
	}
}

func TestErrorsAreCachedAndAbortSweeps(t *testing.T) {
	bad := mult.Config{Tau0: 0.2e-9, VDAC0: 0.3, VDACFS: 1.0}
	fake := &fakeBackend{fail: bad}
	eng := New(fake, 2)

	if _, err := evaluateOne(eng, bad, device.Nominal()); err == nil {
		t.Fatal("failing corner did not error")
	}
	if _, err := evaluateOne(eng, bad, device.Nominal()); err == nil {
		t.Fatal("cached failure did not error")
	}
	if got := fake.evals.Load(); got != 1 {
		t.Fatalf("failure evaluated %d times, want 1 (errors are cached)", got)
	}

	jobs := append(testJobs(6), Job{Config: bad, Cond: device.Nominal()})
	if _, err := eng.EvaluateBatch(jobs); err == nil {
		t.Fatal("sweep with failing corner did not abort")
	}
}

// panicBackend panics on every evaluation — the regression fixture for the
// claim-safety fix: before it, a backend panic left the claimed cache entry
// unresolved and every later submitter of the key blocked forever on its
// done channel.
type panicBackend struct{}

func (panicBackend) Name() string { return "panic" }
func (panicBackend) EvaluateCell(Eval, Job) (Metrics, error) {
	panic("synthetic backend panic")
}

// TestBackendPanicResolvesClaimedEntry submits the same key from several
// goroutines against a panicking backend. Pre-fix this test dies on the
// uncaught panic (and the waiters would hang forever); post-fix every
// submitter — the one that ran the backend and the ones waiting on its
// claim — gets an error, within the deadline.
func TestBackendPanicResolvesClaimedEntry(t *testing.T) {
	eng := New(panicBackend{}, 2)
	job := testJobs(1)[0]

	const submitters = 4
	done := make(chan error, submitters)
	for i := 0; i < submitters; i++ {
		go func() {
			_, err := evaluateOne(eng, job.Config, job.Cond)
			done <- err
		}()
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < submitters; i++ {
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("submitter got %v, want a backend-panicked error", err)
			}
		case <-deadline:
			t.Fatal("submitter blocked on the panicked backend's claimed entry")
		}
	}
	// The panic is cached like any deterministic failure.
	if _, err := evaluateOne(eng, job.Config, job.Cond); err == nil {
		t.Fatal("cached panic did not error")
	}

	// The batched path resolves every claimed entry too: the batch errors
	// but returns instead of hanging, and re-submitting doesn't hang either.
	batchDone := make(chan error, 1)
	go func() {
		_, err := eng.EvaluateBatch(testJobs(3))
		batchDone <- err
	}()
	select {
	case err := <-batchDone:
		if err == nil {
			t.Fatal("batch over a panicking backend did not error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("batch blocked on panicked backend entries")
	}
}

func TestStatsString(t *testing.T) {
	cases := []struct {
		st   Stats
		want string
	}{
		{Stats{Misses: 3, Hits: 1, Entries: 3}, "3 evaluated, 1 cache hits, 3 entries"},
		{Stats{Misses: 2, DiskHits: 5, Entries: 7}, "2 evaluated, 0 cache hits, 7 entries, 5 store hits"},
		// Store errors without disk hits must not print "0 store hits".
		{Stats{Misses: 4, StoreErrors: 2, Entries: 4}, "4 evaluated, 0 cache hits, 4 entries, 2 store errors"},
		{Stats{Misses: 1, DiskHits: 3, StoreErrors: 1, Entries: 4}, "1 evaluated, 0 cache hits, 4 entries, 3 store hits, 1 store errors"},
	}
	for _, c := range cases {
		if got := c.st.String(); got != c.want {
			t.Errorf("Stats%+v.String() = %q, want %q", c.st, got, c.want)
		}
	}
}

// intraFake records the intra-job budgets the engine grants, so the
// job-level/intra-job negotiation is observable.
type intraFake struct {
	fakeBackend
	mu     sync.Mutex
	intras []int
}

func (f *intraFake) EvaluateCell(ev Eval, j Job) (Metrics, error) {
	f.mu.Lock()
	f.intras = append(f.intras, ev.Workers)
	f.mu.Unlock()
	return f.fakeBackend.EvaluateCell(ev, j)
}

func TestEngineGrantsIntraBudget(t *testing.T) {
	fake := &intraFake{}
	eng := New(fake, 8)

	// A one-job batch gets the whole budget.
	job := testJobs(1)[0]
	if _, err := evaluateOne(eng, job.Config, job.Cond); err != nil {
		t.Fatal(err)
	}
	if len(fake.intras) != 1 || fake.intras[0] != 8 {
		t.Fatalf("one-job batch granted %v, want [8]", fake.intras)
	}

	// A 2-job batch splits 8 = 2 jobs × 4 intra.
	fake.intras = nil
	if _, err := eng.EvaluateBatch(testJobs(3)[1:]); err != nil {
		t.Fatal(err)
	}
	if len(fake.intras) != 2 || fake.intras[0] != 4 || fake.intras[1] != 4 {
		t.Fatalf("2-job batch granted %v, want [4 4]", fake.intras)
	}

	// A 3-job batch splits 8 = 3 jobs × 2 intra + 2 remainder grants — the
	// budget is never stranded by integer division.
	fake.intras = nil
	if _, err := eng.EvaluateBatch(testJobs(15)[12:]); err != nil {
		t.Fatal(err)
	}
	sort.Ints(fake.intras)
	if len(fake.intras) != 3 || fake.intras[0] != 2 || fake.intras[1] != 3 || fake.intras[2] != 3 {
		t.Fatalf("3-job batch granted %v, want [2 3 3]", fake.intras)
	}

	// A batch at least as wide as the budget grants every job intra = 1.
	fake.intras = nil
	if _, err := eng.EvaluateBatch(testJobs(12)[3:]); err != nil {
		t.Fatal(err)
	}
	if len(fake.intras) != 9 {
		t.Fatalf("wide batch granted %v, want 9 grants", fake.intras)
	}
	for _, intra := range fake.intras {
		if intra != 1 {
			t.Fatalf("wide batch granted %v, want intra=1 for every job", fake.intras)
		}
	}
}

var (
	equivOnce  sync.Once
	equivModel *core.Model
	equivErr   error
)

// TestBackendEquivalenceSmoke cross-checks the two production backends on a
// handful of corners: the behavioral models are calibrated against the
// golden simulator, so both must agree on the accuracy and energy of a
// corner within the calibration residuals (the behavioral ϵ additionally
// carries the analytic noise expectation, so the tolerance is in LSBs, not
// bits).
func TestBackendEquivalenceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-simulation bound")
	}
	equivOnce.Do(func() {
		equivModel, equivErr = core.Calibrate(core.QuickCalibration())
	})
	if equivErr != nil {
		t.Fatal(equivErr)
	}
	calib := core.QuickCalibration()
	behavioral := New(Behavioral{Model: equivModel}, 0)
	golden := New(NewGoldenBackend(calib.Tech, calib.Spice), 0)

	jobs := Jobs([]mult.Config{
		{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0},
		{Tau0: 0.28e-9, VDAC0: 0.4, VDACFS: 0.8},
	}, device.Nominal())
	beh, err := behavioral.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	gold, err := golden.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		a, b := beh[i], gold[i]
		if a.EpsMul <= 0 || b.EpsMul < 0 {
			t.Fatalf("corner %v: degenerate errors (behavioral %+v, golden %+v)", job.Config, a, b)
		}
		// Both backends must produce a usable variation criterion (the
		// golden one comes from Monte-Carlo mismatch sampling).
		if a.SigmaMaxLSB <= 0 || b.SigmaMaxLSB <= 0 {
			t.Errorf("corner %v: σ@max missing (behavioral %.3f, golden %.3f LSB)",
				job.Config, a.SigmaMaxLSB, b.SigmaMaxLSB)
		}
		if d := b.EpsMul - a.EpsMul; math.Abs(d) > 2.0 {
			t.Errorf("corner %v: ϵ disagreement %.2f LSB (behavioral %.2f, golden %.2f)",
				job.Config, d, a.EpsMul, b.EpsMul)
		}
		if r := b.EMul / a.EMul; r < 0.7 || r > 1.3 {
			t.Errorf("corner %v: energy ratio %.2f outside [0.7, 1.3] (behavioral %.1f fJ, golden %.1f fJ)",
				job.Config, r, a.EMul*1e15, b.EMul*1e15)
		}
	}
}

// TestNaNJobsRejectedBeforeClaim: a NaN never equals itself, so a key
// holding one can neither hit nor resolve its cache entry. The engine
// refuses such a batch up front: no backend call, no stranded claim.
func TestNaNJobsRejectedBeforeClaim(t *testing.T) {
	fake := &fakeBackend{}
	eng := New(fake, 2)
	good := testJobs(1)[0]
	nanCfg, nanCond := good, good
	nanCfg.Config.VDACFS = math.NaN()
	nanCond.Cond.TempC = math.NaN()
	for _, bad := range []Job{nanCfg, nanCond} {
		if _, err := eng.EvaluateBatch([]Job{good, bad}); err == nil {
			t.Errorf("batch with %v at %v evaluated", bad.Config, bad.Cond)
		}
	}
	if n := fake.evals.Load(); n != 0 {
		t.Fatalf("backend ran %d times for refused batches, want 0", n)
	}
	eng.mu.Lock()
	claimed := len(eng.cache)
	eng.mu.Unlock()
	if claimed != 0 {
		t.Fatalf("refused batches left %d cache entries", claimed)
	}
}

// TestBehavioralRejectsNonFiniteMetrics: corners whose models overflow end
// in an error, never in NaN metrics that the engine would cache and its
// store persist. An infinite parameter fails Validate, an overflowing
// transfer fails the ADC trim, and a transfer that stays finite while the
// energy model overflows (V_DAC,FS = 1e30 V) fails the metrics check.
func TestBehavioralRejectsNonFiniteMetrics(t *testing.T) {
	equivOnce.Do(func() {
		equivModel, equivErr = core.Calibrate(core.QuickCalibration())
	})
	if equivErr != nil {
		t.Fatal(equivErr)
	}
	disk := newFakeStore()
	eng := New(Behavioral{Model: equivModel}, 0).WithStore(disk)
	for _, cfg := range []mult.Config{
		{Tau0: math.Inf(1), VDAC0: 0.3, VDACFS: 1.0},
		{Tau0: 1e300, VDAC0: 0.3, VDACFS: 1.0},
		{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1e300},
		{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1e30},
	} {
		m, err := evaluateOne(eng, cfg, device.Nominal())
		if err == nil {
			t.Errorf("tau0 %g, VDACFS %g: nil error with metrics %+v", cfg.Tau0, cfg.VDACFS, m)
		}
	}
	if disk.putKeys != 0 {
		t.Fatalf("store persisted %d results for corners with no finite metrics", disk.putKeys)
	}
}

// fakeStore is an in-memory engine.Store with call accounting, so the
// tiered lookup path is observable without touching disk (internal/store
// tests the real implementation against a live engine).
type fakeStore struct {
	mu      sync.Mutex
	data    map[Key]Metrics
	gets    int
	puts    int // PutBatch calls, not entries
	putKeys int
	failPut bool
}

func newFakeStore() *fakeStore { return &fakeStore{data: map[Key]Metrics{}} }

func (s *fakeStore) Get(key Key) (Metrics, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	met, ok := s.data[key]
	return met, ok
}

func (s *fakeStore) PutBatch(entries []CacheEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.putKeys += len(entries)
	if s.failPut {
		return errors.New("synthetic store failure")
	}
	for _, ent := range entries {
		s.data[ent.Key] = ent.Met
	}
	return nil
}

func TestTieredLookupAndGroupPersist(t *testing.T) {
	fake := &fakeBackend{}
	disk := newFakeStore()
	eng := New(fake, 4).WithStore(disk)
	jobs := testJobs(12)

	// Cold batch: every corner runs the backend and persists in ONE group.
	if _, err := eng.EvaluateBatch(jobs); err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 12 {
		t.Fatalf("cold batch ran %d backend evaluations, want 12", got)
	}
	if disk.puts != 1 || disk.putKeys != 12 {
		t.Fatalf("cold batch persisted %d keys in %d writes, want 12 in 1", disk.putKeys, disk.puts)
	}
	st := eng.Stats()
	if st.Misses != 12 || st.DiskHits != 0 {
		t.Fatalf("cold stats %+v", st)
	}

	// A second engine over the same store: zero backend work, all disk.
	eng2 := New(&fakeBackend{}, 4).WithStore(disk)
	warm, err := eng2.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	st = eng2.Stats()
	if st.Misses != 0 || st.DiskHits != 12 || st.Hits != 0 {
		t.Fatalf("warm stats %+v, want 0 misses / 12 disk hits", st)
	}
	for i, j := range jobs {
		if warm[i].Config != j.Config {
			t.Fatalf("disk tier returned wrong corner at %d", i)
		}
	}
	// Third sweep on the same engine: memory tier, no store traffic.
	getsBefore := disk.gets
	if _, err := eng2.EvaluateBatch(jobs); err != nil {
		t.Fatal(err)
	}
	if disk.gets != getsBefore {
		t.Fatal("memory-tier hits must not consult the store")
	}
	if st := eng2.Stats(); st.Hits != 12 {
		t.Fatalf("memory-tier stats %+v", st)
	}
}

func TestEvaluateSingleUsesTiers(t *testing.T) {
	fake := &fakeBackend{}
	disk := newFakeStore()
	eng := New(fake, 0).WithStore(disk)
	job := testJobs(1)[0]

	if _, err := evaluateOne(eng, job.Config, job.Cond); err != nil {
		t.Fatal(err)
	}
	if disk.putKeys != 1 {
		t.Fatalf("single evaluation persisted %d keys, want 1", disk.putKeys)
	}
	eng2 := New(fake, 0).WithStore(disk)
	if _, err := evaluateOne(eng2, job.Config, job.Cond); err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 1 {
		t.Fatalf("backend ran %d times, want 1 (second hit from disk)", got)
	}
	if st := eng2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreFailureIsBestEffort(t *testing.T) {
	fake := &fakeBackend{}
	disk := newFakeStore()
	disk.failPut = true
	eng := New(fake, 2).WithStore(disk)
	jobs := testJobs(6)
	mets, err := eng.EvaluateBatch(jobs)
	if err != nil {
		t.Fatalf("store failure must not fail the sweep: %v", err)
	}
	if len(mets) != 6 {
		t.Fatalf("sweep returned %d results", len(mets))
	}
	st := eng.Stats()
	if st.StoreErrors == 0 {
		t.Fatal("failed persistence not accounted")
	}
	if st.Misses != 6 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEvaluateBatchDedupesAndOrders(t *testing.T) {
	fake := &fakeBackend{}
	eng := New(fake, 3)
	base := testJobs(4)
	jobs := append(append([]Job{}, base...), base[1], base[3], base[1])

	mets, err := eng.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 4 {
		t.Fatalf("batch with duplicates ran %d backend evaluations, want 4", got)
	}
	for i, j := range jobs {
		if mets[i].Config != j.Config || mets[i].Cond != j.Cond {
			t.Fatalf("result %d out of order: got %v, want %v", i, mets[i].Config, j.Config)
		}
	}
	if st := eng.Stats(); st.Misses != 4 || st.Hits != 3 {
		t.Fatalf("stats %+v, want 4 misses / 3 hits", st)
	}
}

func TestEvaluateBatchErrorByJobIndex(t *testing.T) {
	bad := mult.Config{Tau0: 0.2e-9, VDAC0: 0.3, VDACFS: 1.0}
	fake := &fakeBackend{fail: bad}
	eng := New(fake, 2)
	// testJobs(5) spans τ0 = 0.1…0.5 ns, so jobs[2] (0.2 ns) duplicates the
	// failing corner and the batch holds 5 distinct keys.
	jobs := append([]Job{{Config: bad, Cond: device.Nominal()}}, testJobs(5)...)
	if _, err := eng.EvaluateBatch(jobs); err == nil {
		t.Fatal("batch with failing corner did not error")
	}
	if got := fake.evals.Load(); got != 5 {
		t.Fatalf("failed batch ran %d backend evaluations, want 5 (dedupe + run to completion)", got)
	}
	// The healthy corners of the batch are resolved and cached: re-scoring
	// one runs no backend work.
	if _, err := evaluateOne(eng, jobs[3].Config, jobs[3].Cond); err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 5 {
		t.Fatalf("healthy corner of failed batch not cached: %d evaluations", got)
	}
}
