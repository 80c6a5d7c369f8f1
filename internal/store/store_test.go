package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
)

// testKey builds a distinct, stable key. The float fields round-trip
// exactly through JSON (shortest-representation encoding), which the
// index-equality of reopened stores depends on.
func testKey(i int) engine.Key {
	return engine.Key{
		Backend: "fake",
		Job: engine.Job{
			Config: mult.Config{Tau0: float64(i+1) * 0.13e-9, VDAC0: 0.3, VDACFS: 1.0},
			Cond:   device.Nominal(),
		},
	}
}

func testMet(i int) engine.Metrics {
	k := testKey(i)
	return engine.Metrics{
		Config: k.Config, Cond: k.Cond,
		EpsMul: float64(i) * 0.25, EpsLarge: float64(i) * 0.5, EpsSmall: float64(i) * 0.125,
		EMul: float64(i+1) * 1e-15, SigmaMaxLSB: 0.4, SigmaMaxVolt: 1.7e-3, LSBVolt: 4.2e-3,
	}
}

func fillStore(t *testing.T, s *Store, n int) {
	t.Helper()
	batch := make([]engine.CacheEntry, n)
	for i := range batch {
		batch[i] = engine.CacheEntry{Key: testKey(i), Met: testMet(i)}
	}
	if err := s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 40)
	if got := s.Len(); got != 40 {
		t.Fatalf("store holds %d results, want 40", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Len(); got != 40 {
		t.Fatalf("reopened store holds %d results, want 40", got)
	}
	for i := 0; i < 40; i++ {
		met, ok := s.Get(testKey(i))
		if !ok {
			t.Fatalf("result %d lost across reopen", i)
		}
		if met != testMet(i) {
			t.Fatalf("result %d corrupted across reopen:\n got %+v\nwant %+v", i, met, testMet(i))
		}
	}
	if _, ok := s.Get(testKey(99)); ok {
		t.Fatal("phantom result for a key never written")
	}
}

// segments returns the non-empty segment files of a store directory.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		t.Fatal("no non-empty segments")
	}
	return out
}

func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 30)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the log two ways: append a partial record (a length prefix
	// promising more body than follows) to one segment — a crash
	// mid-append — and chop bytes off the end of another, destroying its
	// final record.
	segs := segments(t, dir)
	torn := make([]byte, recordHeaderLen+10)
	binary.LittleEndian.PutUint32(torn, uint32(recordBodyFixedLen+20))
	appendBytes(t, segs[0], torn)
	var chopped string
	if len(segs) > 1 {
		chopped = segs[len(segs)-1]
		truncateBy(t, chopped, 10)
	}

	s, err = Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatalf("truncated tail must not be fatal: %v", err)
	}
	survivors := 0
	for i := 0; i < 30; i++ {
		if met, ok := s.Get(testKey(i)); ok {
			if met != testMet(i) {
				t.Fatalf("survivor %d corrupted: %+v", i, met)
			}
			survivors++
		}
	}
	// The torn append loses nothing; the chopped segment loses exactly its
	// final record.
	minSurvivors := 30
	if chopped != "" {
		minSurvivors = 29
	}
	if survivors < minSurvivors {
		t.Fatalf("%d results survived, want >= %d", survivors, minSurvivors)
	}
	// The open repaired the segments: new appends must land on readable
	// ground and survive another reopen.
	if err := s.Put(testKey(100), testMet(100)); err != nil {
		t.Fatal(err)
	}
	before := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Len(); got != before {
		t.Fatalf("post-repair reopen holds %d results, want %d", got, before)
	}
	if _, ok := s.Get(testKey(100)); !ok {
		t.Fatal("record appended after repair lost")
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func truncateBy(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= n {
		t.Fatalf("segment %s too small to truncate", path)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintMismatchInvalidation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "calibration-a"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A recalibrated session must see none of calibration A's results.
	s, err = Open(dir, Options{Fingerprint: "calibration-b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("stale calibration served %d results", got)
	}
	if _, ok := s.Get(testKey(3)); ok {
		t.Fatal("result from another calibration must never be served")
	}
	// B writes its own result for the same key — same key, different
	// fingerprint, different value.
	bMet := testMet(3)
	bMet.EpsMul += 1
	if err := s.Put(testKey(3), bMet); err != nil {
		t.Fatal(err)
	}
	if met, _ := s.Get(testKey(3)); met != bMet {
		t.Fatal("own write not served")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Live != 1 || st.Garbage != 0 {
		t.Fatalf("post-compaction stats %+v, want 1 live / 0 garbage", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionCollapsesOverwrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	final := testMet(0)
	for rev := 0; rev < 50; rev++ {
		final.EpsMul = float64(rev)
		if err := s.Put(testKey(0), final); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Live != 1 || st.Garbage != 49 {
		t.Fatalf("pre-compaction stats %+v, want 1 live / 49 garbage", st)
	}
	sizeBefore := dirSize(t, dir)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Live != 1 || st.Garbage != 0 {
		t.Fatalf("post-compaction stats %+v", st)
	}
	if sizeAfter := dirSize(t, dir); sizeAfter >= sizeBefore {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", sizeBefore, sizeAfter)
	}
	if met, ok := s.Get(testKey(0)); !ok || met != final {
		t.Fatalf("latest revision lost by compaction: %+v", met)
	}
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// TestConcurrentReadWrite exercises the store under -race: concurrent
// PutBatch, Get and Compact must be safe.
func TestConcurrentReadWrite(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				idx := g*50 + i
				if err := s.Put(testKey(idx), testMet(idx)); err != nil {
					t.Error(err)
					return
				}
				if met, ok := s.Get(testKey(idx)); !ok || met != testMet(idx) {
					t.Errorf("read-your-write failed for %d", idx)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := s.Len(); got != 400 {
		t.Fatalf("store holds %d results, want 400", got)
	}
}

// TestFormatVersionRejected: Open refuses any layout but FormatVersion and
// names the version it found — the retired v1 JSONL layout included.
func TestFormatVersionRejected(t *testing.T) {
	for _, version := range []int{1, FormatVersion + 1} {
		dir := t.TempDir()
		manifest := fmt.Sprintf(`{"version": %d, "partitions": 16, "fingerprint": "x"}`, version)
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, Options{Fingerprint: "fp"})
		if err == nil {
			t.Fatalf("format version %d must be rejected", version)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("format version %d", version)) {
			t.Errorf("error %q does not name version %d", err, version)
		}
	}
}

func TestFingerprintHelper(t *testing.T) {
	a1, err := Fingerprint("model", 1, struct{ X float64 }{2.5})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Fingerprint("model", 1, struct{ X float64 }{2.5})
	if a1 != a2 {
		t.Fatal("fingerprint not deterministic")
	}
	b, _ := Fingerprint("model", 1, struct{ X float64 }{2.6})
	if a1 == b {
		t.Fatal("fingerprint ignores content")
	}
	c, _ := Fingerprint("model", 1)
	if a1 == c {
		t.Fatal("fingerprint ignores part count")
	}
}

// countingBackend lets the tiered-engine test observe real evaluations.
type countingBackend struct{ evals atomic.Int64 }

func (b *countingBackend) Name() string { return "fake" }

func (b *countingBackend) EvaluateCell(_ engine.Eval, j engine.Job) (engine.Metrics, error) {
	b.evals.Add(1)
	return engine.Metrics{Config: j.Config, Cond: j.Cond, EpsMul: j.Config.Tau0 * 1e9, EMul: j.Config.VDACFS * 1e-15}, nil
}

// TestTieredEngineAcrossProcesses is the store's reason to exist: a second
// engine (a new "process") over the same directory performs zero backend
// evaluations, and a corrupted tail degrades to recomputation — never to a
// wrong or failed run.
func TestTieredEngineAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	jobs := make([]engine.Job, 24)
	for i := range jobs {
		jobs[i] = testKey(i).Job
	}

	s1, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	backend1 := &countingBackend{}
	cold, err := engine.New(backend1, 4).WithStore(s1).EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := backend1.evals.Load(); got != 24 {
		t.Fatalf("cold run evaluated %d corners, want 24", got)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second session: zero backend evaluations, zero engine misses.
	s2, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	backend2 := &countingBackend{}
	eng2 := engine.New(backend2, 4).WithStore(s2)
	warm, err := eng2.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := backend2.evals.Load(); got != 0 {
		t.Fatalf("warm run evaluated %d corners, want 0", got)
	}
	st := eng2.Stats()
	if st.Misses != 0 || st.DiskHits != 24 {
		t.Fatalf("warm stats %+v, want 0 misses / 24 disk hits", st)
	}
	for i := range jobs {
		if cold[i] != warm[i] {
			t.Fatalf("disk-served result %d differs from computed result", i)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt every segment tail; the third session recomputes the damage
	// and still returns identical results.
	for _, seg := range segments(t, dir) {
		truncateBy(t, seg, 7)
	}
	s3, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatalf("corrupt tails must not fail the run: %v", err)
	}
	defer s3.Close()
	backend3 := &countingBackend{}
	eng3 := engine.New(backend3, 4).WithStore(s3)
	healed, err := eng3.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	st = eng3.Stats()
	if st.Misses == 0 {
		t.Fatal("every segment lost its tail record; some corners must recompute")
	}
	if st.Misses+st.DiskHits != 24 {
		t.Fatalf("stats %+v do not cover the 24 corners", st)
	}
	for i := range jobs {
		if cold[i] != healed[i] {
			t.Fatalf("post-corruption result %d differs", i)
		}
	}
}

// TestClosedStoreFailsWrites pins the failure mode: writes to a closed
// store error (the engine treats that as a store error, not a run failure).
func TestClosedStoreFailsWrites(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	err = s.Put(testKey(0), testMet(0))
	if err == nil {
		t.Fatal("write to closed store must error")
	}
	if !errors.Is(err, os.ErrInvalid) {
		t.Logf("closed-store write error: %v", err)
	}
}

// TestSingleWriterExclusion: a second process (here: a second Open) must be
// rejected while the store is held, and admitted after Close — the
// cross-process safety net for open-time compaction.
func TestSingleWriterExclusion(t *testing.T) {
	if !lockSupported {
		t.Skip("no flock on this platform")
	}
	dir := t.TempDir()
	s1, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Fingerprint: "fp"}); err == nil {
		t.Fatal("second Open of a held store must fail")
	}
	fillStore(t, s1, 5)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatalf("reopen after Close must succeed: %v", err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 5 {
		t.Fatalf("reopened store holds %d results, want 5", got)
	}
}

// TestRetentionEvictsOldestSegments pins the MaxBytes policy: reopening
// with a tiny budget removes whole segments least-recently-written first
// (deterministic mtime order), keeps the freshest data, and never fails the
// open — evicted corners only cost recomputation.
func TestRetentionEvictsOldestSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 64)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Spread the segment mtimes so "oldest" is well-defined and newest-last
	// is deterministic: seg-00 oldest … seg-15 newest.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != DefaultPartitions {
		t.Fatalf("found %d segments, want %d", len(segs), DefaultPartitions)
	}
	sort.Strings(segs)
	base := time.Now().Add(-time.Hour)
	var total int64
	sizes := make(map[string]int64)
	for i, p := range segs {
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(p, when, when); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes[p] = fi.Size()
		total += fi.Size()
	}

	// Budget for roughly the newest quarter of the data.
	budget := total / 4
	s, err = Open(dir, Options{Fingerprint: "fp-a", MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The surviving bytes fit the budget, and the survivors are exactly a
	// suffix of the mtime order (oldest evicted first).
	var kept int64
	firstKept := -1
	for i, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 0 {
			if firstKept < 0 {
				firstKept = i
			}
			if fi.Size() != sizes[p] {
				t.Fatalf("surviving segment %s changed size", p)
			}
			kept += fi.Size()
		} else if firstKept >= 0 {
			t.Fatalf("segment %s evicted after an older survivor — not oldest-first", p)
		}
	}
	if kept > budget {
		t.Fatalf("surviving segments hold %d bytes, budget %d", kept, budget)
	}
	if firstKept < 0 {
		t.Fatal("retention evicted everything despite a positive budget")
	}
	if firstKept == 0 {
		t.Fatal("retention evicted nothing despite an over-budget store")
	}

	// Keys in surviving segments still serve; the store stays writable.
	if s.Len() == 0 {
		t.Fatal("no live results survived retention")
	}
	found := 0
	for i := 0; i < 64; i++ {
		if met, ok := s.Get(testKey(i)); ok {
			if met != testMet(i) {
				t.Fatalf("survivor %d corrupted by retention", i)
			}
			found++
		}
	}
	if found != s.Len() {
		t.Fatalf("index count %d disagrees with Get survivors %d", s.Len(), found)
	}
	if found >= 64 {
		t.Fatal("eviction removed no results")
	}
	if err := s.Put(testKey(100), testMet(100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(100)); !ok {
		t.Fatal("store not writable after retention")
	}
}

// TestRetentionDisabledByDefault: MaxBytes 0 must not evict.
func TestRetentionDisabledByDefault(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 32)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Len(); got != 32 {
		t.Fatalf("unbounded reopen holds %d results, want 32", got)
	}
}

// TestRetentionEvictsAgedSegments pins the MaxAge policy: reopening with an
// age bound deletes every segment whose mtime is older than the bound —
// regardless of size — keeps the fresh ones intact, and leaves the store
// writable. Age retention composes with MaxBytes (the age pass runs first).
func TestRetentionEvictsAgedSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 64)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	if len(segs) != DefaultPartitions {
		t.Fatalf("found %d segments, want %d", len(segs), DefaultPartitions)
	}
	// Age the first half of the segments beyond the bound; keep the rest
	// fresh. Record pre-retention sizes so naturally empty partitions do
	// not read as evictions.
	old := time.Now().Add(-48 * time.Hour)
	aged := map[string]bool{}
	sizes := map[string]int64{}
	for i, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes[p] = fi.Size()
		if i < len(segs)/2 {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
			aged[p] = true
		}
	}

	s, err = Open(dir, Options{Fingerprint: "fp-a", MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if aged[p] && fi.Size() > 0 {
			t.Fatalf("aged segment %s survived the age bound", p)
		}
		if !aged[p] && fi.Size() != sizes[p] {
			t.Fatalf("fresh segment %s changed by the age bound: %d -> %d bytes", p, sizes[p], fi.Size())
		}
	}

	// Survivors still serve correct values; evicted keys merely miss.
	found := 0
	for i := 0; i < 64; i++ {
		if met, ok := s.Get(testKey(i)); ok {
			if met != testMet(i) {
				t.Fatalf("survivor %d corrupted by age retention", i)
			}
			found++
		}
	}
	if found == 0 || found >= 64 {
		t.Fatalf("age retention kept %d of 64 results, want a strict subset", found)
	}
	if found != s.Len() {
		t.Fatalf("index count %d disagrees with Get survivors %d", s.Len(), found)
	}
	if err := s.Put(testKey(200), testMet(200)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(200)); !ok {
		t.Fatal("store not writable after age retention")
	}
}

// TestRetentionAgeDisabledByDefault: MaxAge 0 must not evict, however old
// the segments are.
func TestRetentionAgeDisabledByDefault(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 32)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	ancient := time.Now().Add(-1000 * time.Hour)
	for _, p := range segs {
		if err := os.Chtimes(p, ancient, ancient); err != nil {
			t.Fatal(err)
		}
	}
	s, err = Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Len(); got != 32 {
		t.Fatalf("unbounded reopen holds %d results, want 32", got)
	}
}
