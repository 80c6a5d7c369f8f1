package engine

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
)

// gateBackend blocks every evaluation on a release gate and signals the
// first start, so tests can cancel a batch while work is verifiably in
// flight.
type gateBackend struct {
	fakeBackend
	started chan struct{} // one buffered token per evaluation start
	release chan struct{} // closed to let evaluations finish
}

func newGateBackend() *gateBackend {
	return &gateBackend{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (g *gateBackend) EvaluateCell(ev Eval, j Job) (Metrics, error) {
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.release
	return g.fakeBackend.EvaluateCell(ev, j)
}

// TestEvaluateBatchCancellation exercises the contract a canceled server
// job depends on: in-flight evaluations complete and stay cached,
// unstarted ones are abandoned WITHOUT memoizing the cancellation, and a
// rerun finishes the remainder — every corner evaluated exactly once
// across both runs.
func TestEvaluateBatchCancellation(t *testing.T) {
	gate := newGateBackend()
	eng := New(gate, 2)
	jobs := testJobs(12)

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		mets []Metrics
		err  error
	}
	res := make(chan outcome, 1)
	go func() {
		mets, err := eng.EvaluateBatchOpts(jobs, BatchOptions{Ctx: ctx})
		res <- outcome{mets, err}
	}()

	<-gate.started // at least one evaluation is on the backend
	cancel()
	close(gate.release)
	out := <-res
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want context.Canceled", out.err)
	}

	ran := gate.evals.Load()
	if ran < 1 || ran >= 12 {
		t.Fatalf("canceled batch ran %d evaluations, want some but not all of 12", ran)
	}
	st := eng.Stats()
	if st.Misses != uint64(ran) {
		t.Fatalf("misses %d after cancellation, want %d (only jobs that ran)", st.Misses, ran)
	}
	if st.Entries != int(ran) {
		t.Fatalf("%d cache entries after cancellation, want %d — abandoned claims must be released", st.Entries, ran)
	}

	// The rerun must not see memoized cancellations: it completes, serving
	// finished work from the cache and evaluating only the abandoned rest.
	mets, err := eng.EvaluateBatchOpts(jobs, BatchOptions{})
	if err != nil {
		t.Fatalf("rerun after cancellation: %v", err)
	}
	if len(mets) != 12 {
		t.Fatalf("rerun returned %d results, want 12", len(mets))
	}
	if total := gate.evals.Load(); total != 12 {
		t.Fatalf("%d backend evaluations across both runs, want exactly 12", total)
	}
	st = eng.Stats()
	if st.Misses != 12 || st.Hits != uint64(ran) {
		t.Fatalf("stats %+v after rerun, want 12 misses / %d hits", st, ran)
	}
}

// cancelingStore is a fakeStore that records the keys it is asked for and
// cancels during its k-th Get, after the lookup (k = 0: never). The engine
// looks keys up serially, from the submitting goroutine.
type cancelingStore struct {
	*fakeStore
	k      int
	cancel context.CancelFunc
	asked  []Key
}

func (s *cancelingStore) Get(key Key) (Metrics, bool) {
	s.asked = append(s.asked, key)
	met, ok := s.fakeStore.Get(key)
	if len(s.asked) == s.k {
		s.cancel()
	}
	return met, ok
}

// TestEvaluateBatchCanceledDuringStoreLookup cancels a batch from inside
// its store lookups, over a batch whose even jobs are store hits and odd
// jobs misses. The keys the store served up to the cancel stay cached;
// every other claim — the miss already looked up and the keys not yet
// looked up — is abandoned without memoizing the cancellation; and a rerun
// resolves exactly the abandoned keys, in claim order.
func TestEvaluateBatchCanceledDuringStoreLookup(t *testing.T) {
	jobs := testJobs(12)
	want := make([]Metrics, len(jobs))
	disk := newFakeStore()
	for i, j := range jobs {
		want[i], _ = (&fakeBackend{}).EvaluateCell(Eval{}, j)
		if i%2 == 0 {
			disk.data[Key{Backend: "fake", Job: j}] = want[i]
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The third lookup, job 2's, is a hit and cancels: jobs 0 and 2 are
	// served, job 1 has missed, and jobs 3–11 are never looked up.
	store := &cancelingStore{fakeStore: disk, k: 3, cancel: cancel}
	fake := &fakeBackend{}
	eng := New(fake, 2).WithStore(store)
	if _, err := eng.EvaluateBatchOpts(jobs, BatchOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch canceled during its store lookups returned %v, want context.Canceled", err)
	}
	if n := len(store.asked); n != 3 {
		t.Fatalf("the canceled batch looked up %d keys, want 3: the lookups stop at the cancel", n)
	}
	st := eng.Stats()
	if st.DiskHits != 2 || st.Misses != 0 || st.Hits != 0 || fake.evals.Load() != 0 {
		t.Fatalf("canceled batch: stats %+v and %d backend evaluations, want 2 store hits and nothing evaluated", st, fake.evals.Load())
	}
	if st.Entries != 2 {
		t.Fatalf("%d cache entries after the cancel, want 2 (the served keys): abandoned claims must be released", st.Entries)
	}
	if disk.puts != 0 {
		t.Fatalf("canceled batch wrote %d store groups, want none", disk.puts)
	}

	var abandoned []Key
	for i, j := range jobs {
		if i != 0 && i != 2 {
			abandoned = append(abandoned, Key{Backend: "fake", Job: j})
		}
	}
	store.k, store.asked = 0, nil
	mets, err := eng.EvaluateBatch(jobs)
	if err != nil {
		t.Fatalf("rerun after the cancel: %v", err)
	}
	if !slices.Equal(store.asked, abandoned) {
		t.Fatalf("rerun looked up %v, want exactly the abandoned keys %v", store.asked, abandoned)
	}
	if d := eng.Stats().Sub(st); d.Hits != 2 || d.DiskHits != 4 || d.Misses != 6 || fake.evals.Load() != 6 || d.Entries != 12 {
		t.Fatalf("rerun: stats delta %+v and %d backend evaluations, want 2 memory hits, 4 store hits, 6 evaluated (the odd jobs), 12 entries",
			d, fake.evals.Load())
	}
	if !slices.Equal(mets, want) {
		t.Fatalf("rerun results %v, want %v", mets, want)
	}
}

func TestEvaluateBatchPreCanceled(t *testing.T) {
	fake := &fakeBackend{}
	eng := New(fake, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.EvaluateBatchOpts(testJobs(4), BatchOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled batch returned %v, want context.Canceled", err)
	}
	if n := fake.evals.Load(); n != 0 {
		t.Fatalf("pre-canceled batch ran %d evaluations, want 0", n)
	}
	if st := eng.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("pre-canceled batch left stats %+v, want nothing claimed", st)
	}
}

func TestEvaluateBatchProgress(t *testing.T) {
	fake := &fakeBackend{}
	eng := New(fake, 4)
	jobs := testJobs(10)

	var mu sync.Mutex
	var calls [][2]int
	record := func(done, total int) {
		mu.Lock()
		calls = append(calls, [2]int{done, total})
		mu.Unlock()
	}

	if _, err := eng.EvaluateBatchOpts(jobs, BatchOptions{OnProgress: record}); err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("no progress calls on a cold batch")
	}
	prev := 0
	for _, c := range calls {
		if c[1] != 10 {
			t.Fatalf("progress total %d, want 10", c[1])
		}
		if c[0] <= prev {
			t.Fatalf("progress done not monotone: %v", calls)
		}
		prev = c[0]
	}
	if prev != 10 {
		t.Fatalf("final progress %d, want 10", prev)
	}

	// A fully warm batch resolves everything up front: one call, complete.
	calls = nil
	if _, err := eng.EvaluateBatchOpts(jobs, BatchOptions{OnProgress: record}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != [2]int{10, 10} {
		t.Fatalf("warm batch progress %v, want a single (10, 10)", calls)
	}
}
