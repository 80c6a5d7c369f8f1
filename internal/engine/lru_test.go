package engine

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"optima/internal/device"
	"optima/internal/mult"
)

// lruJob is distinct key i of the memory-tier tests: an instant cell of
// fakeBackend, whose Metrics are a function of the key. Its V_DAC,FS keeps
// it apart from testJobs.
func lruJob(i int) Job {
	return Job{Config: mult.Config{Tau0: float64(i+1) * 1e-13, VDAC0: 0.3, VDACFS: 0.9}, Cond: device.Nominal()}
}

func lruJobs(from, to int) []Job {
	jobs := make([]Job, 0, to-from)
	for i := from; i < to; i++ {
		jobs = append(jobs, lruJob(i))
	}
	return jobs
}

// checkMemoryTier walks the LRU and the map under the engine lock: every
// listed entry sits in its map slot, the ring is consistent and holds at
// most memoryCap entries, and every map entry is listed or claimed.
func checkMemoryTier(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for ent := e.lru.next; ent != &e.lru; ent = ent.next {
		if ent.state != listed || e.cache[ent.key] != ent || ent.next.prev != ent {
			t.Fatalf("LRU entry %v: state %d, in its map slot %v", ent.key.Config, ent.state, e.cache[ent.key] == ent)
		}
		n++
	}
	if n != e.listed || n > memoryCap {
		t.Fatalf("LRU holds %d entries, counter says %d, cap %d", n, e.listed, memoryCap)
	}
	for key, ent := range e.cache {
		if ent.key != key || ent.state == dropped {
			t.Fatalf("map slot %v holds an entry keyed %v in state %d", key.Config, ent.key.Config, ent.state)
		}
	}
}

// TestMemoryTierEvictsAboveCap: pushing 1.5× the cap of distinct cells
// through one engine keeps memoryCap of them, evicts the least recently
// used, and re-requesting an evicted key returns equal Metrics — a store
// hit when a store is attached, a fresh evaluation when none is.
func TestMemoryTierEvictsAboveCap(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			fake := &fakeBackend{}
			eng := New(fake, 2)
			if withStore {
				eng.WithStore(newFakeStore())
			}
			const total = memoryCap + memoryCap/2
			var first []Metrics
			for from := 0; from < total; from += 1000 {
				mets, err := eng.EvaluateBatch(lruJobs(from, min(from+1000, total)))
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = mets
				}
				if st := eng.Stats(); st.Entries > memoryCap {
					t.Fatalf("after %d cells the memory tier holds %d entries, cap %d", from+len(mets), st.Entries, memoryCap)
				}
			}
			checkMemoryTier(t, eng)
			st := eng.Stats()
			if st.Entries != memoryCap || st.Evictions != total-memoryCap || st.Misses != total {
				t.Fatalf("after %d distinct cells: %+v, want %d entries, %d evictions, %d evaluated",
					total, st, memoryCap, total-memoryCap, total)
			}

			// Key 0 was settled first, so it went first.
			pre := eng.Stats()
			mets, err := eng.EvaluateBatch(lruJobs(0, 1))
			if err != nil {
				t.Fatal(err)
			}
			if mets[0] != first[0] {
				t.Fatalf("evicted key came back as %+v, first served as %+v", mets[0], first[0])
			}
			d := eng.Stats().Sub(pre)
			want := Stats{Misses: 1, Evictions: 1, Entries: memoryCap}
			if withStore {
				want = Stats{DiskHits: 1, Evictions: 1, Entries: memoryCap}
			}
			if d != want {
				t.Fatalf("re-requesting an evicted key: delta %+v, want %+v", d, want)
			}
			// The most recent key is still a memory hit, and a hit moves no
			// entry out.
			pre = eng.Stats()
			if _, err := eng.EvaluateBatch(lruJobs(total-1, total)); err != nil {
				t.Fatal(err)
			}
			if d := eng.Stats().Sub(pre); d != (Stats{Hits: 1, Entries: memoryCap}) {
				t.Fatalf("re-requesting the newest key: delta %+v, want one memory hit", d)
			}
			checkMemoryTier(t, eng)
		})
	}
}

// blockingBackend blocks cells whose VDAC0 is 0.5 on a gate and serves
// every other cell instantly.
type blockingBackend struct {
	fakeBackend
	started chan struct{}
	release chan struct{}
}

func (b *blockingBackend) EvaluateCell(ev Eval, j Job) (Metrics, error) {
	if j.Config.VDAC0 == 0.5 {
		b.started <- struct{}{}
		<-b.release
	}
	return b.fakeBackend.EvaluateCell(ev, j)
}

// TestMemoryTierNeverEvictsClaims: while a batch holds claims on blocked
// cells, 1.5× the cap of other cells passes through the engine. The claims
// stay in their map slots, the tier holds at most the cap plus those
// claims, and once released each blocked cell was evaluated exactly once.
func TestMemoryTierNeverEvictsClaims(t *testing.T) {
	be := &blockingBackend{started: make(chan struct{}, 4), release: make(chan struct{})}
	eng := New(be, 4)
	blocked := make([]Job, 4)
	for i := range blocked {
		blocked[i] = lruJob(i)
		blocked[i].Config.VDAC0 = 0.5
	}
	done := make(chan error, 1)
	go func() {
		_, err := eng.EvaluateBatch(blocked)
		done <- err
	}()
	for range blocked {
		<-be.started
	}
	eng.mu.Lock()
	claims := map[Key]*entry{}
	for _, j := range blocked {
		key := Key{Backend: be.Name(), Job: j}
		claims[key] = eng.cache[key]
	}
	eng.mu.Unlock()

	const total = memoryCap + memoryCap/2
	for from := 0; from < total; from += 2000 {
		if _, err := eng.EvaluateBatch(lruJobs(from, min(from+2000, total))); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.Entries > memoryCap+len(blocked) {
			t.Fatalf("memory tier holds %d entries, want at most the cap plus %d claims", st.Entries, len(blocked))
		}
	}
	eng.mu.Lock()
	for key, ent := range claims {
		if ent == nil || eng.cache[key] != ent || ent.state != claimed {
			eng.mu.Unlock()
			t.Fatalf("the claim on %v left its map slot while its batch was blocked", key.Config)
		}
	}
	eng.mu.Unlock()
	checkMemoryTier(t, eng)

	close(be.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, want := be.evals.Load(), int64(total+len(blocked)); got != want {
		t.Fatalf("%d evaluations, want %d: a blocked cell was evaluated twice", got, want)
	}
	checkMemoryTier(t, eng)
	if st := eng.Stats(); st.Entries != memoryCap {
		t.Fatalf("after the blocked batch settled the tier holds %d entries, want %d", st.Entries, memoryCap)
	}
}

// skewedBackend delays every eighth key from 2·memoryCap on, so that at
// several workers those cells finish far out of job order.
type skewedBackend struct{ fakeBackend }

func (b *skewedBackend) EvaluateCell(ev Eval, j Job) (Metrics, error) {
	if i := int(math.Round(j.Config.Tau0*1e13)) - 1; i >= 2*memoryCap && i%8 == 0 {
		for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
		}
	}
	return b.fakeBackend.EvaluateCell(ev, j)
}

// TestMemoryTierWorkerInvariant: one seeded sequence of submissions —
// overlapping, with duplicates, re-requesting evicted keys, one batch of
// new cells alone larger than the cap, 3.4× the cap of cells in all —
// gives the same Stats delta and the same LRU order after every batch at
// 1 and at 4 workers, with and without a store, although at 4 workers
// cells finish out of order. Evictions follow the submission sequence, not
// scheduling.
func TestMemoryTierWorkerInvariant(t *testing.T) {
	type state struct {
		delta Stats
		order uint64 // FNV-1a over the listed keys, most recent first
	}
	run := func(workers int, withStore bool) []state {
		eng := New(&skewedBackend{}, workers)
		if withStore {
			eng.WithStore(newFakeStore())
		}
		rng := rand.New(rand.NewPCG(5, 17))
		var states []state
		for b := 0; b < 40; b++ {
			jobs := make([]Job, 1+rng.IntN(2000))
			for i := range jobs {
				jobs[i] = lruJob(rng.IntN(2 * memoryCap))
			}
			if b == 20 {
				// New cells beyond the cap: the batch evicts some of its own.
				jobs = lruJobs(2*memoryCap, 3*memoryCap+memoryCap/4)
				rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
			}
			pre := eng.Stats()
			mets, err := eng.EvaluateBatch(jobs)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range mets {
				if m.Config != jobs[i].Config {
					t.Fatalf("batch %d: result %d is for %v, want %v", b, i, m.Config, jobs[i].Config)
				}
			}
			st := state{delta: eng.Stats().Sub(pre), order: 14695981039346656037}
			eng.mu.Lock()
			for ent := eng.lru.next; ent != &eng.lru; ent = ent.next {
				st.order = (st.order ^ math.Float64bits(ent.key.Config.Tau0)) * 1099511628211
			}
			eng.mu.Unlock()
			states = append(states, st)
		}
		checkMemoryTier(t, eng)
		return states
	}
	for _, withStore := range []bool{false, true} {
		serial, parallel := run(1, withStore), run(4, withStore)
		var evictions uint64
		for b := range serial {
			if serial[b] != parallel[b] {
				t.Fatalf("store=%v batch %d: %+v at 1 worker, %+v at 4", withStore, b, serial[b], parallel[b])
			}
			evictions += serial[b].delta.Evictions
		}
		if evictions == 0 {
			t.Fatalf("store=%v: the sequence never evicted", withStore)
		}
	}
}

// TestMemoryTierConcurrentSubmitters: four goroutines submit overlapping
// batches at once, 2× the cap of distinct cells between them. Every result
// is the Metrics of its own key, the tier never holds more than the cap
// plus the claims of the batches in flight, and the LRU and map agree at
// the end. CI runs it under -race -count=10.
func TestMemoryTierConcurrentSubmitters(t *testing.T) {
	const submitters, batch = 4, 1000
	eng := New(&fakeBackend{}, 4).WithStore(newFakeStore())
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 3))
			for b := 0; b < 12; b++ {
				jobs := make([]Job, batch)
				for i := range jobs {
					jobs[i] = lruJob(rng.IntN(2 * memoryCap))
				}
				mets, err := eng.EvaluateBatch(jobs)
				if err != nil {
					errs <- err
					return
				}
				for i, m := range mets {
					if want, _ := (&fakeBackend{}).EvaluateCell(Eval{}, jobs[i]); m != want {
						errs <- fmt.Errorf("submitter %d: %v served %+v, want %+v", g, jobs[i].Config, m, want)
						return
					}
				}
				if n := eng.Stats().Entries; n > memoryCap+submitters*batch {
					errs <- fmt.Errorf("memory tier holds %d entries, want at most %d", n, memoryCap+submitters*batch)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkMemoryTier(t, eng)
	if st := eng.Stats(); st.Entries > memoryCap || st.Evictions == 0 {
		t.Fatalf("after the submitters: %+v, want at most %d entries and some evictions", st, memoryCap)
	}
}
