package store

import (
	"testing"

	"optima/internal/engine"
)

// benchRecords is the population size of the open benchmarks — large enough
// that decode throughput, not syscall noise, dominates.
const benchRecords = 10_000

func benchEntries(n int) []engine.CacheEntry {
	ents := make([]engine.CacheEntry, n)
	for i := range ents {
		ents[i] = engine.CacheEntry{Key: testKey(i), Met: testMet(i)}
	}
	return ents
}

// buildV2Fixture creates a clean v2 store directory with n records.
func buildV2Fixture(b *testing.B, dir string, n int) {
	b.Helper()
	s, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.PutBatch(benchEntries(n)); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreOpen measures what a session pays before its first lookup:
// reopening a clean v2 store (warm-v2), the every-session cost.
func BenchmarkStoreOpen(b *testing.B) {
	b.Run("warm-v2/10k", func(b *testing.B) {
		dir := b.TempDir()
		buildV2Fixture(b, dir, benchRecords)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := Open(dir, Options{Fingerprint: "fp"})
			if err != nil {
				b.Fatal(err)
			}
			if s.Len() != benchRecords {
				b.Fatalf("store serves %d records", s.Len())
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStorePutBatch pits batched persistence against per-record Puts:
// the batch path encodes each partition's group into one buffer and pays
// one lock/write per touched segment instead of per record.
func BenchmarkStorePutBatch(b *testing.B) {
	const batch = 256
	b.Run("batch/256", func(b *testing.B) {
		dir := b.TempDir()
		s, err := Open(dir, Options{Fingerprint: "fp"})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		ents := benchEntries(batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.PutBatch(ents); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("looped-put/256", func(b *testing.B) {
		dir := b.TempDir()
		s, err := Open(dir, Options{Fingerprint: "fp"})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		ents := benchEntries(batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ent := range ents {
				if err := s.Put(ent.Key, ent.Met); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
