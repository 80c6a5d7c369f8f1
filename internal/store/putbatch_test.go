package store

import (
	"math"
	"os"
	"sync"
	"testing"

	"optima/internal/engine"
)

// TestPutBatchEquivalentToLoopedPut: one PutBatch and a loop of Puts over
// the same entries must leave identical stores — same live set, same
// values, same partition routing — including across a reopen, and from
// concurrent writers (run under -race).
func TestPutBatchEquivalentToLoopedPut(t *testing.T) {
	const n = 64
	dirBatch, dirLoop := t.TempDir(), t.TempDir()

	sb, err := Open(dirBatch, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, sb, n)

	sl, err := Open(dirLoop, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				if err := put(sl, testKey(i), testMet(i)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	for _, s := range []*Store{sb, sl} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	sb, err = Open(dirBatch, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sl, err = Open(dirLoop, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()

	if sb.Len() != n || sl.Len() != n {
		t.Fatalf("stores hold %d / %d results, want %d each", sb.Len(), sl.Len(), n)
	}
	for i := 0; i < n; i++ {
		mb, okb := sb.Get(testKey(i))
		ml, okl := sl.Get(testKey(i))
		if !okb || !okl || mb != ml || mb != testMet(i) {
			t.Fatalf("key %d: batch (%v,%v) vs loop (%v,%v)", i, mb, okb, ml, okl)
		}
	}
	// Same partition routing: record counts per segment file match.
	for i := 0; i < DefaultPartitions; i++ {
		fib, err := os.Stat(segPath(dirBatch, i))
		if err != nil {
			t.Fatal(err)
		}
		fil, err := os.Stat(segPath(dirLoop, i))
		if err != nil {
			t.Fatal(err)
		}
		if fib.Size() != fil.Size() {
			t.Fatalf("partition %d: batch segment %d bytes, looped %d", i, fib.Size(), fil.Size())
		}
	}
}

// TestOpenDoesNotRewriteCleanSegments pins the 25%-garbage compaction
// threshold: a warm open of a clean store leaves every segment file's bytes
// untouched, while a mostly-stale partition is rewritten.
func TestOpenDoesNotRewriteCleanSegments(t *testing.T) {
	dir := t.TempDir()
	onePartition(t, dir)
	s, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 40)
	// Overwrite 8 of 40 keys: 8 garbage / 48 total ≈ 17% < 25%.
	for i := 0; i < 8; i++ {
		if err := put(s, testKey(i), testMet(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(segPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(segPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("clean open rewrote the segment: %d -> %d bytes", len(before), len(after))
	}

	// Push the garbage over the threshold: overwrite 20 more keys
	// (28 garbage / 68 total ≈ 41% > 25%) — the next open compacts.
	s, err = Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 28; i++ {
		if err := put(s, testKey(i), testMet(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Garbage != 0 {
		t.Fatalf("open left %d garbage records in a %d%%-stale partition", st.Garbage, 41)
	}
	if st.Live != 40 {
		t.Fatalf("compaction kept %d live records, want 40", st.Live)
	}
}

// TestPutBatchRefusesNonFinite: a result with a non-finite metric is never
// written, since its record would not load again and reopening would end
// the partition's readable prefix at it. The finite results around it,
// in the same batch too, persist, and the refusal is PutBatch's error.
func TestPutBatchRefusesNonFinite(t *testing.T) {
	dir := t.TempDir()
	onePartition(t, dir)
	s, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		met := testMet(i)
		if i == 1 {
			met.EpsMul = math.NaN()
		}
		if err := put(s, testKey(i), met); (err != nil) != (i == 1) {
			t.Fatalf("put %d: error %v", i, err)
		}
	}
	inf := testMet(13)
	inf.SigmaMaxLSB = math.Inf(1)
	if err := s.PutBatch([]engine.CacheEntry{{Key: testKey(12), Met: testMet(12)}, {Key: testKey(13), Met: inf}}); err == nil {
		t.Fatal("a batch holding an infinite metric was stored without error")
	}
	check := func(when string) {
		t.Helper()
		if n := s.Len(); n != 12 {
			t.Fatalf("%s: %d results live, want 12", when, n)
		}
		for i := 0; i <= 13; i++ {
			met, ok := s.Get(testKey(i))
			if want := i != 1 && i != 13; ok != want || ok && met != testMet(i) {
				t.Fatalf("%s: key %d served (%v, %v), want served=%v", when, i, met, ok, want)
			}
		}
	}
	check("before reopen")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{Fingerprint: "fp"}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("after reopen")
	if st := s.Stats(); st.TornTails != 0 {
		t.Fatalf("reopen repaired %d torn tails, want none", st.TornTails)
	}
}

var getSink engine.Metrics

// TestGetZeroAlloc is the satellite's routing assertion at the store level:
// a Get — hash, partition pick, index lookup — performs zero allocations
// (the v1 router allocated a fresh FNV hasher and scratch per call).
func TestGetZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s, 16)
	keys := [4]engine.Key{testKey(0), testKey(5), testKey(10), testKey(15)}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		getSink, _ = s.Get(keys[i&3])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Store.Get allocates %.1f objects per call, want 0", allocs)
	}
}
