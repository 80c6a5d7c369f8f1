package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"testing"

	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
)

// randRecord draws a record with adversarial float values (negative zero,
// denormals, extremes) — everything must survive the codec bit-exactly.
func randRecord(rng *rand.Rand) record {
	f := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return 5e-324 // smallest denormal
		case 3:
			return -math.MaxFloat64
		case 4:
			return rng.NormFloat64()
		default:
			return rng.Float64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	backends := []string{"", engine.BackendBehavioral, engine.BackendGolden, "a-rather-long-backend-name"}
	fps := []string{"", "fp", "0123456789abcdef0123456789abcdef"}
	rec := record{
		FP: fps[rng.Intn(len(fps))],
		Key: engine.Key{
			Backend: backends[rng.Intn(len(backends))],
			Job: engine.Job{
				Config: mult.Config{Tau0: f(), VDAC0: f(), VDACFS: f()},
				Cond: device.PVT{
					Corner: device.ProcessCorner(rng.Intn(3)),
					VDD:    f(),
					TempC:  f(),
				},
			},
		},
	}
	rec.Met = engine.Metrics{
		Config: rec.Key.Config, Cond: rec.Key.Cond,
		EpsMul: f(), EpsLarge: f(), EpsSmall: f(), EMul: f(),
		SigmaMaxLSB: f(), SigmaMaxVolt: f(), LSBVolt: f(),
	}
	return rec
}

// TestRecordRoundTrip is the codec's property test: across a large seeded
// population of adversarial records, decode(encode(r)) == r exactly, the
// decoder consumes exactly the encoded bytes, and concatenated records
// decode back in sequence.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var stream []byte
	var want []record
	for i := 0; i < 500; i++ {
		rec := randRecord(rng)
		if !validMetrics(rec.Met) {
			continue // NaN/Inf are rejected by design, not round-tripped
		}
		one := appendRecord(nil, rec)
		got, n, ok := decodeRecord(one)
		if !ok {
			t.Fatalf("record %d does not decode: %+v", i, rec)
		}
		if n != len(one) {
			t.Fatalf("record %d: decoded %d of %d bytes", i, n, len(one))
		}
		if got != rec {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, got, rec)
		}
		stream = appendRecord(stream, rec)
		want = append(want, rec)
	}
	for i, rec := range want {
		got, n, ok := decodeRecord(stream)
		if !ok {
			t.Fatalf("stream record %d does not decode", i)
		}
		if got != rec {
			t.Fatalf("stream record %d mismatch", i)
		}
		stream = stream[n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d trailing bytes after the last record", len(stream))
	}
}

// TestDecodeRecordTruncation: a record truncated at EVERY byte offset must
// return ok == false, never panic, never misdecode.
func TestDecodeRecordTruncation(t *testing.T) {
	rec := record{FP: "fp-a", Key: testKey(3), Met: testMet(3)}
	full := appendRecord(nil, rec)
	for cut := 0; cut < len(full); cut++ {
		if _, _, ok := decodeRecord(full[:cut]); ok {
			t.Fatalf("truncation to %d of %d bytes decoded as a record", cut, len(full))
		}
	}
}

// TestDecodeRecordCorruption: flipping any single byte of a record must be
// caught (the CRC covers the body, the length prefix is validated by
// framing), except for bits the CRC itself occupies — a corrupt CRC also
// fails the check.
func TestDecodeRecordCorruption(t *testing.T) {
	rec := record{FP: "fp-a", Key: testKey(7), Met: testMet(7)}
	full := appendRecord(nil, rec)
	for i := 0; i < len(full); i++ {
		corrupt := append([]byte(nil), full...)
		corrupt[i] ^= 0x40
		got, _, ok := decodeRecord(corrupt)
		if ok && got != rec {
			t.Fatalf("byte %d flip decoded to a DIFFERENT record: %+v", i, got)
		}
		if ok && i != 0 {
			// A flip in the length prefix's low byte could in principle still
			// frame a valid record; anywhere else ok must be false.
			t.Fatalf("byte %d flip went undetected", i)
		}
	}
}

// TestTruncationAtEveryOffset is the whole-store property: a single-
// partition store truncated at every byte offset opens, serves exactly the
// records fully contained in the kept prefix, and accepts new appends.
func TestTruncationAtEveryOffset(t *testing.T) {
	// Encode the reference stream once to learn the record boundaries.
	const n = 4
	var boundaries []int // cumulative end offset of record i
	var stream []byte
	for i := 0; i < n; i++ {
		stream = appendRecord(stream, record{FP: "fp-a", Key: testKey(i), Met: testMet(i)})
		boundaries = append(boundaries, len(stream))
	}

	for cut := 0; cut <= len(stream); cut++ {
		dir := t.TempDir()
		s, err := Open(dir, Options{Fingerprint: "fp-a", Partitions: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := s.Put(testKey(i), testMet(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seg := segPath(dir, 0)
		if err := os.Truncate(seg, int64(cut)); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, Options{Fingerprint: "fp-a", Partitions: 1})
		if err != nil {
			t.Fatalf("cut %d: open failed: %v", cut, err)
		}
		wantLive := 0
		for _, b := range boundaries {
			if b <= cut {
				wantLive++
			}
		}
		if got := s.Len(); got != wantLive {
			t.Fatalf("cut %d: %d records served, want %d", cut, got, wantLive)
		}
		if err := s.Put(testKey(100), testMet(100)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, Options{Fingerprint: "fp-a", Partitions: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Len(); got != wantLive+1 {
			t.Fatalf("cut %d: %d records after repair+append, want %d", cut, got, wantLive+1)
		}
		s.Close()
	}
}

// TestCorruptMidSegmentServesPrefix: CRC damage in the middle of a segment
// keeps the prefix, drops the suffix, and never fails the open.
func TestCorruptMidSegmentServesPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp-a", Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the 6th record's body.
	var off int
	for i := 0; i < 5; i++ {
		_, n, ok := decodeRecord(data[off:])
		if !ok {
			t.Fatal("fixture decode failed")
		}
		off += n
	}
	data[off+recordHeaderLen+4] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{Fingerprint: "fp-a", Partitions: 1})
	if err != nil {
		t.Fatalf("mid-segment corruption must not fail the open: %v", err)
	}
	defer s.Close()
	if got := s.Len(); got != 5 {
		t.Fatalf("%d records survive mid-segment corruption, want the 5-record prefix", got)
	}
	for i := 0; i < 5; i++ {
		if met, ok := s.Get(testKey(i)); !ok || met != testMet(i) {
			t.Fatalf("prefix record %d lost or corrupted", i)
		}
	}
	if err := s.Put(testKey(50), testMet(50)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(50)); !ok {
		t.Fatal("store not writable after corruption repair")
	}
}

// TestMaxRecordLenRejected: an absurd length prefix is framing damage.
func TestMaxRecordLenRejected(t *testing.T) {
	buf := make([]byte, recordHeaderLen+maxRecordLen+1)
	binary.LittleEndian.PutUint32(buf, uint32(maxRecordLen+1))
	if _, _, ok := decodeRecord(buf); ok {
		t.Fatal("oversized length prefix accepted")
	}
}

// FuzzDecodeRecord: arbitrary bytes must never panic the decoder, and
// anything it accepts must re-encode to the identical wire form.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRecord(nil, record{FP: "fp", Key: testKey(1), Met: testMet(1)}))
	f.Add(appendRecord(nil, record{}))
	torn := appendRecord(nil, record{FP: "fp", Key: testKey(2), Met: testMet(2)})
	f.Add(torn[:len(torn)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, ok := decodeRecord(data)
		if !ok {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		if got := appendRecord(nil, rec); !bytes.Equal(got, data[:n]) {
			t.Fatalf("accepted record does not re-encode to its wire form")
		}
	})
}
