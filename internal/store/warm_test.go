package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// dirFiles reads every file of a store directory by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestCleanOpenWritesNothing: opening a clean store, reading from it and
// closing it leaves every file's bytes as they were, and manifest.json is
// the same file — a write-then-rename rewrite would give it a new inode
// even with equal bytes. The test holds the original manifest open, so a
// rewrite cannot hand its inode number on to the replacement.
func TestCleanOpenWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 40)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	manifest := filepath.Join(dir, manifestName)
	held, err := os.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	fi, err := held.Stat()
	if err != nil {
		t.Fatal(err)
	}
	sameManifest := func(when string) {
		t.Helper()
		fi2, err := os.Stat(manifest)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(fi, fi2) {
			t.Fatalf("clean %s rewrote manifest.json", when)
		}
	}

	s, err = Open(dir, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	sameManifest("open")
	for i := 0; i < 40; i++ {
		if met, ok := s.Get(testKey(i)); !ok || met != testMet(i) {
			t.Fatalf("result %d lost or changed across reopen", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := dirFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("clean open and close changed the file set: %d -> %d files", len(before), len(after))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("clean open and close changed %s", name)
		}
	}
	sameManifest("close")
}

// TestManifestRewrittenWhenStale: a missing manifest, a torn one and one
// naming another fingerprint are rewritten at open, each to the manifest
// a fresh store under the open fingerprint writes.
func TestManifestRewrittenWhenStale(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 8)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(fp string) []byte {
		t.Helper()
		s, err := Open(dir, Options{Fingerprint: fp})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("manifest after open: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return got
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if got := reopen("fp-a"); !bytes.Equal(got, want) {
		t.Fatalf("missing manifest rewritten as %q, want %q", got, want)
	}
	if err := os.WriteFile(path, want[:len(want)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reopen("fp-a"); !bytes.Equal(got, want) {
		t.Fatalf("torn manifest rewritten as %q, want %q", got, want)
	}
	if got := reopen("fp-b"); bytes.Equal(got, want) || !bytes.Contains(got, []byte(`"fp-b"`)) {
		t.Fatalf("open under another fingerprint left manifest %q", got)
	}
	if got := reopen("fp-a"); !bytes.Equal(got, want) {
		t.Fatalf("manifest back under fp-a reads %q, want %q", got, want)
	}
}

// damagedTails are the segment damages the frame count must stop at: a
// partial header, a last record whose length prefix runs past the end,
// and a length prefix of 0xFFFFFFFF. keep is how many of the segment's
// records stay readable.
var damagedTails = []struct {
	name   string
	damage func(seg []byte) []byte
	keep   int // of 5 records
}{
	{"5-byte partial header", func(seg []byte) []byte { return append(seg, 0x40, 0, 0, 0, 0) }, 5},
	{"last prefix past EOF", func(seg []byte) []byte { return seg[:len(seg)-3] }, 4},
	{"prefix 0xFFFFFFFF", func(seg []byte) []byte {
		return append(seg, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	}, 5},
}

// TestDamagedTailLoadsValidPrefix: each damaged tail loads the records
// before it, is repaired by one compaction that the stats report as a torn
// tail, and opens clean afterwards.
func TestDamagedTailLoadsValidPrefix(t *testing.T) {
	for _, tc := range damagedTails {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			onePartition(t, dir)
			s, err := Open(dir, Options{Fingerprint: "fp"})
			if err != nil {
				t.Fatal(err)
			}
			fillStore(t, s, 5)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			seg, err := os.ReadFile(segPath(dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segPath(dir, 0), tc.damage(seg), 0o644); err != nil {
				t.Fatal(err)
			}

			s, err = Open(dir, Options{Fingerprint: "fp"})
			if err != nil {
				t.Fatalf("damaged tail failed the open: %v", err)
			}
			want := Stats{Live: tc.keep, Partitions: 1, Compactions: 1, TornTails: 1}
			if got := s.Stats(); got != want {
				t.Fatalf("stats %+v, want %+v", got, want)
			}
			for i := 0; i < 5; i++ {
				met, ok := s.Get(testKey(i))
				if ok != (i < tc.keep) || ok && met != testMet(i) {
					t.Fatalf("record %d: served %v, want %v", i, ok, i < tc.keep)
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
			if got, want := s.Stats(), (Stats{Live: tc.keep, Partitions: 1}); got != want {
				t.Fatalf("stats after repair %+v, want %+v", got, want)
			}
		})
	}
}

// TestCountFramesStopsAtDamage: the frame count that sizes an index
// counts the records under the open fingerprint before each damaged tail
// and stops there; foreign records, an empty segment and one that starts
// with damage count none.
func TestCountFramesStopsAtDamage(t *testing.T) {
	var seg []byte
	for i := 0; i < 5; i++ {
		seg = appendRecord(seg, record{FP: "fp", Key: testKey(i), Met: testMet(i)})
	}
	if got := countFrames(seg, "fp"); got != 5 {
		t.Fatalf("intact segment counts %d frames, want 5", got)
	}
	for _, tc := range damagedTails {
		if got := countFrames(tc.damage(bytes.Clone(seg)), "fp"); got != tc.keep {
			t.Fatalf("%s: %d frames, want %d", tc.name, got, tc.keep)
		}
	}
	mixed := bytes.Clone(seg)
	for i := 0; i < 3; i++ {
		for _, fp := range []string{"f", "fp2", "", "other"} {
			mixed = appendRecord(mixed, record{FP: fp, Key: testKey(i), Met: testMet(i)})
		}
	}
	if got := countFrames(mixed, "fp"); got != 5 {
		t.Fatalf("segment with 12 foreign records counts %d frames under fp, want 5", got)
	}
	if got := countFrames(mixed, "other"); got != 3 {
		t.Fatalf("segment counts %d frames under other, want 3", got)
	}
	huge := binary.LittleEndian.AppendUint32(nil, maxRecordLen+1)
	huge = append(huge, make([]byte, maxRecordLen+8)...)
	for _, data := range [][]byte{nil, {1, 2, 3}, make([]byte, 8)[:7], huge} {
		if got := countFrames(data, ""); got != 0 {
			t.Fatalf("%d bytes starting %x count %d frames, want 0", len(data), data[:min(len(data), 8)], got)
		}
	}
}
