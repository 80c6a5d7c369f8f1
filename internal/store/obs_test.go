package store

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"optima/internal/obs"
)

// storeCountNames maps each of the store's counts to its registry sample.
var storeCountNames = []string{
	`optima_store_gets_total{result="hit"}`,
	`optima_store_gets_total{result="miss"}`,
	"optima_store_put_records_total",
	"optima_store_compactions_total",
	"optima_store_torn_tails_total",
}

// storeCounts reads one store's counts in storeCountNames order: lookups
// and appended records from its counts struct, the rest through Stats.
func storeCounts(s *Store) []uint64 {
	st := s.Stats()
	return []uint64{s.n.getHits.Load(), s.n.getMisses.Load(), s.n.putRecords.Load(),
		uint64(st.Compactions), uint64(st.TornTails)}
}

// registryCounts reads the same counts from the registry's samples.
func registryCounts(rec *obs.Recorder) []uint64 {
	byName := map[string]float64{}
	for _, sm := range rec.Metrics().Samples() {
		byName[sm.Name] = sm.Value
	}
	out := make([]uint64, len(storeCountNames))
	for i, name := range storeCountNames {
		out[i] = uint64(byName[name])
	}
	return out
}

// TestStoreStatsMatchRegistry pins one home per count: lookups, appended
// records, compactions and torn tails read the same through the store and
// through the registry, and a store reopened on the recorder continues the
// series where its predecessor stopped.
func TestStoreStatsMatchRegistry(t *testing.T) {
	dir := t.TempDir()
	rec := obs.NewRecorder(obs.RecorderOptions{})
	s1, err := Open(dir, Options{Fingerprint: "fp-a", Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s1, 30)
	// Supersede every record: the reopen below compacts each partition
	// past the garbage threshold.
	fillStore(t, s1, 30)
	s1.Get(testKey(1))
	s1.Get(testKey(999))
	first := storeCounts(s1)
	if got := registryCounts(rec); !slices.Equal(got, first) {
		t.Errorf("registry %v, store %v", got, first)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	torn := make([]byte, recordHeaderLen+10)
	binary.LittleEndian.PutUint32(torn, uint32(recordBodyFixedLen+20))
	appendBytes(t, segments(t, dir)[0], torn)
	s2, err := Open(dir, Options{Fingerprint: "fp-a", Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Get(testKey(2))
	want := storeCounts(s2)
	for i := range want {
		want[i] += first[i]
		if want[i] == 0 {
			t.Errorf("%s never counted", storeCountNames[i])
		}
	}
	if got := registryCounts(rec); !slices.Equal(got, want) {
		t.Errorf("after reopening: registry %v, the two stores' sum %v", got, want)
	}
}

func TestOpenSurfacesTornTailCount(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 30)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segments(t, dir)
	torn := make([]byte, recordHeaderLen+10)
	binary.LittleEndian.PutUint32(torn, uint32(recordBodyFixedLen+20))
	appendBytes(t, segs[0], torn)

	rec := obs.NewRecorder(obs.RecorderOptions{})
	s, err = Open(dir, Options{Fingerprint: "fp-a", Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Stats().TornTails; got != 1 {
		t.Errorf("Stats.TornTails = %d, want 1", got)
	}
	if !strings.Contains(s.Stats().String(), "torn") {
		t.Errorf("Stats.String() %q does not mention the repair", s.Stats().String())
	}
	if got := rec.Metrics().Counter("optima_store_torn_tails_total", "").Value(); got != 1 {
		t.Errorf("torn-tail counter = %v, want 1", got)
	}
}

// TestStoreAccessCounters checks the hot-path instruments: per-Get
// hit/miss counters and the put-record counter, plus the span categories
// the store records at open and on writes.
func TestStoreAccessCounters(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderOptions{})
	s, err := Open(t.TempDir(), Options{Fingerprint: "fp-a", Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	fillStore(t, s, 10)
	for i := 0; i < 10; i++ {
		if _, ok := s.Get(testKey(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
	s.Get(testKey(999)) // miss

	reg := rec.Metrics()
	if got := reg.Counter("optima_store_gets_total", "", "result", "hit").Value(); got != 10 {
		t.Errorf("get hits = %v, want 10", got)
	}
	if got := reg.Counter("optima_store_gets_total", "", "result", "miss").Value(); got != 1 {
		t.Errorf("get misses = %v, want 1", got)
	}
	if got := reg.Counter("optima_store_put_records_total", "").Value(); got != 10 {
		t.Errorf("put records = %v, want 10", got)
	}

	var sawOpen bool
	for _, sp := range rec.Snapshot() {
		if sp.Cat == obs.CatStore && sp.Name == "open" {
			sawOpen = true
		}
	}
	if !sawOpen {
		t.Error("no store open span recorded")
	}
}
