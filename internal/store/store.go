// Package store is the persistent, content-addressed result store behind
// the evaluation engine's disk tier: engine.Metrics keyed on the engine's
// stable (backend, config, condition) key plus a model/calibration
// fingerprint, spilled to disk so corner results survive the process —
// `optima all` after `optima dse` pays zero re-evaluation, and CI jobs
// reuse each other's corners.
//
// Layout and durability model:
//
//   - The store is an append-only segment log under one directory,
//     partitioned by key hash (engine.Key.Hash, stable across hosts) into
//     a fixed number of segment files (seg-NN.seg). Partitioning keeps
//     append contention per-partition and gives a future key-range-sharded
//     or remote store a drop-in seam: the engine.Store interface never
//     exposes the layout.
//   - Records use the format-v2 binary codec (codec.go): length-prefixed,
//     fixed-width key/metric fields, one CRC32 per record. Open rejects a
//     directory whose manifest names any other format version, including
//     the retired v1 JSONL layout; deleting the directory recovers, and its
//     results recompute on demand.
//   - Every record carries the writer's fingerprint. Only records matching
//     the store's open fingerprint enter the in-memory index, so a stale
//     calibration can never serve wrong results — it only costs
//     recomputation.
//   - Appends are crash-tolerant: a truncated or corrupt tail record is
//     skipped on open (never fatal), and the damaged partition is
//     compacted on the spot so new appends don't land behind garbage.
//     Undamaged partitions are only compacted when their garbage
//     (superseded or foreign-fingerprint records) exceeds ~25% of the
//     segment — opening a large clean store is a pure read, not a rewrite.
//   - Compaction rewrites a partition from its live index via an atomic
//     write-then-rename snapshot; a crash mid-compaction leaves the old
//     segment intact.
//   - Retention bounds long-lived shared caches at open: whole segments
//     older than Options.MaxAge are evicted outright, then segments are
//     evicted least-recently-written first until the rest fits
//     Options.MaxBytes. Evicted corners recompute on demand.
//   - Each count the store keeps (lookups, appended records, compactions,
//     torn tails) has one home, a counts struct that Stats reads and Open
//     attaches to the recorder's registry.
//
// The store implements engine.Store and is wired in as the middle tier of
// the engine's memory → disk → backend lookup path (see exp.Context and the
// CLIs' -cache-dir flag).
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"optima/internal/engine"
	"optima/internal/obs"
)

// DefaultPartitions is the segment count new stores are created with.
const DefaultPartitions = 16

// FormatVersion identifies the on-disk layout. Open rejects any other
// version — the retired v1 JSONL layout as well as a future one — and the
// caller degrades to a memory-only cache.
const FormatVersion = 2

// segSuffix is the v2 segment file extension.
const segSuffix = ".seg"

// segPath names partition i's segment file.
func segPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%02d%s", i, segSuffix))
}

// compactGarbageDenom sets the open-time compaction threshold: a partition
// is rewritten when garbage records exceed 1/compactGarbageDenom (~25%) of
// its total. Below that, the open leaves the segment file untouched.
const compactGarbageDenom = 4

const manifestName = "manifest.json"

// Options configures Open.
type Options struct {
	// Fingerprint identifies the model/calibration state that produced (and
	// may consume) the results. Records with a different fingerprint are
	// treated as garbage: never served, dropped at compaction.
	Fingerprint string
	// Partitions sets the segment count for a newly created store
	// (<= 0 = DefaultPartitions). An existing store keeps its own count.
	Partitions int
	// MaxBytes bounds the store's on-disk size: at open, whole segments are
	// evicted least-recently-written first (by file modification time, which
	// appends keep fresh) until the remaining segments fit the budget.
	// Evicted results only cost recomputation — the retention policy for
	// long-lived shared caches. <= 0 means unlimited.
	MaxBytes int64
	// MaxAge bounds the store's staleness: at open, whole segments whose
	// modification time is older than the bound are evicted outright,
	// before the MaxBytes pass. An age bound keeps a shared cache from
	// serving arbitrarily old (if still fingerprint-valid) results and
	// reclaims directories abandoned by retired configurations. <= 0 means
	// unlimited.
	MaxAge time.Duration
	// Recorder, when non-nil, receives the store's telemetry: spans for
	// open/compaction/append work, the store's counts (lookups by result,
	// appended records, compactions, torn tails), and scrape-time gauges
	// for segment bytes and live/garbage records. Timing and counts never
	// affect what the store serves or writes.
	Recorder *obs.Recorder
}

// counts is the store's accounting, the one home of each count: Stats reads
// it, and Open attaches it to the recorder's registry. It is allocated apart
// from the Store so that a registry holding it never keeps the index alive.
type counts struct {
	getHits, getMisses, putRecords, compactions, tornTails atomic.Uint64
}

// manifest is the store's snapshot metadata, rewritten atomically on every
// Open and Close.
type manifest struct {
	Version     int    `json:"version"`
	Partitions  int    `json:"partitions"`
	Fingerprint string `json:"fingerprint"` // last writer, informational
}

// record is one stored result: the writer's fingerprint, the evaluation
// key, and its metrics. codec.go defines its wire form.
type record struct {
	FP  string
	Key engine.Key
	Met engine.Metrics
}

// partition is one segment file plus its in-memory index of live records.
type partition struct {
	mu    sync.Mutex
	path  string
	file  *os.File
	index map[engine.Key]engine.Metrics
	total int // records in the segment, live or garbage
}

// Store is a disk-backed engine.Store. All methods are safe for concurrent
// use within one process; across processes the store is single-writer,
// enforced by an exclusive lock on the directory (where the platform
// supports it) — a second Open fails cleanly instead of racing open-time
// compaction.
type Store struct {
	dir  string
	fp   string
	lock *os.File
	rec  *obs.Recorder
	n    *counts

	parts []*partition
}

var _ engine.Store = (*Store)(nil)

// Open creates or loads the store at dir. Existing segments are scanned
// into the index; truncated tails are skipped and repaired, and partitions
// that are mostly garbage are compacted.
func Open(dir string, opts Options) (*Store, error) {
	rec := opts.Recorder
	openSpan := rec.StartSpan(0, obs.CatStore, "open", dir)
	defer openSpan.End()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	nparts := opts.Partitions
	if nparts <= 0 {
		nparts = DefaultPartitions
	}
	lock, err := acquireLock(filepath.Join(dir, ".lock"))
	if err != nil {
		return nil, err
	}
	if m, err := readManifest(filepath.Join(dir, manifestName)); err != nil {
		releaseLock(lock)
		return nil, err
	} else if m != nil {
		if m.Version != FormatVersion {
			releaseLock(lock)
			return nil, fmt.Errorf("store: %s has format version %d, want %d (delete the directory to start over; its results recompute)", dir, m.Version, FormatVersion)
		}
		if m.Partitions > 0 {
			nparts = m.Partitions // layout is fixed at creation
		}
	}
	if err := applyRetention(dir, nparts, opts.MaxBytes, opts.MaxAge); err != nil {
		releaseLock(lock)
		return nil, err
	}
	s := &Store{
		dir: dir, fp: opts.Fingerprint, lock: lock, rec: rec, n: &counts{},
		parts: make([]*partition, nparts),
	}
	var loadArg string
	if rec != nil {
		loadArg = fmt.Sprintf("%d partitions", nparts)
	}
	loadSpan := rec.StartSpan(openSpan.ID(), obs.CatStore, "load", loadArg)
	for i := range s.parts {
		p, info, err := loadPartition(segPath(dir, i), opts.Fingerprint)
		if err != nil {
			loadSpan.End()
			s.closeFiles()
			return nil, err
		}
		s.parts[i] = p
		if info.torn {
			s.n.tornTails.Add(1)
		}
		if info.compacted {
			s.n.compactions.Add(1)
		}
	}
	loadSpan.End()
	if err := s.writeManifest(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.register()
	return s, nil
}

// register attaches the store's counts to the recorder's registry and
// exposes its sizing as scrape-time gauges. The gauge functions run at
// scrape with no registry lock held, so taking the partition locks (Stats)
// and statting segment files is safe; values are read fresh from the
// owning structures instead of being mirrored.
func (s *Store) register() {
	reg := s.rec.Metrics()
	if reg == nil {
		return
	}
	reg.CounterOf("optima_store_gets_total", "store index lookups", &s.n.getHits, "result", "hit")
	reg.CounterOf("optima_store_gets_total", "store index lookups", &s.n.getMisses, "result", "miss")
	reg.CounterOf("optima_store_put_records_total", "records appended to segment files", &s.n.putRecords)
	reg.CounterOf("optima_store_compactions_total", "partition rewrites (open-time repair, garbage threshold, explicit Compact)", &s.n.compactions)
	reg.CounterOf("optima_store_torn_tails_total", "segments whose torn or corrupt tail was repaired at open", &s.n.tornTails)
	reg.GaugeFunc("optima_store_segment_bytes", "total size of the store's segment files",
		func() float64 {
			var total int64
			for i := range s.parts {
				if fi, err := os.Stat(segPath(s.dir, i)); err == nil {
					total += fi.Size()
				}
			}
			return float64(total)
		})
	reg.GaugeFunc("optima_store_records", "records held in segment files by state",
		func() float64 { return float64(s.Stats().Live) }, "state", "live")
	reg.GaugeFunc("optima_store_records", "records held in segment files by state",
		func() float64 { return float64(s.Stats().Garbage) }, "state", "garbage")
}

// applyRetention enforces Options.MaxAge and Options.MaxBytes before the
// segments are loaded. The age pass runs first and unconditionally: every
// segment whose modification time is older than maxAge is deleted outright.
// Then, while the remaining segment files exceed the byte budget, the
// segment with the oldest modification time is deleted (its results
// recompute on demand; correctness never depends on the store's contents).
// Ties break by file name so eviction is deterministic. A bound <= 0
// disables that pass.
func applyRetention(dir string, nparts int, maxBytes int64, maxAge time.Duration) error {
	if maxBytes <= 0 && maxAge <= 0 {
		return nil
	}
	type seg struct {
		path  string
		size  int64
		mtime int64
	}
	var segs []seg
	var total int64
	cutoff := int64(math.MinInt64)
	if maxAge > 0 {
		// The age bound is wall-clock by definition; it gates which segments
		// survive open, never the bytes or metrics a segment holds.
		//lint:ignore determinism retention age is measured against the wall clock by design and never feeds persisted bytes or results
		cutoff = time.Now().Add(-maxAge).UnixNano()
	}
	for i := 0; i < nparts; i++ {
		path := segPath(dir, i)
		fi, err := os.Stat(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: retention: %w", err)
		}
		if fi.ModTime().UnixNano() < cutoff {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("store: retention: %w", err)
			}
			continue
		}
		segs = append(segs, seg{path: path, size: fi.Size(), mtime: fi.ModTime().UnixNano()})
		total += fi.Size()
	}
	if maxBytes <= 0 {
		return nil
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].mtime != segs[j].mtime {
			return segs[i].mtime < segs[j].mtime
		}
		return segs[i].path < segs[j].path
	})
	for _, victim := range segs {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(victim.path); err != nil {
			return fmt.Errorf("store: retention: %w", err)
		}
		total -= victim.size
	}
	return nil
}

// partLoadInfo reports what loading one partition had to do — work the
// open path would otherwise do silently, surfaced through Stats.
type partLoadInfo struct {
	// torn: the segment ended in a truncated or corrupt record and the
	// valid prefix was rewritten in place.
	torn bool
	// compacted: the partition was rewritten at load (torn tail or the
	// garbage threshold).
	compacted bool
}

// loadPartition scans one segment into an index. The scan stops at the
// first record that does not decode — a torn append or CRC-detected
// corruption — and the partition is compacted on the spot so the valid
// prefix is all that remains and new appends land after readable data.
func loadPartition(path, fp string) (*partition, partLoadInfo, error) {
	p := &partition{path: path, index: map[engine.Key]engine.Metrics{}}
	var info partLoadInfo
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, info, fmt.Errorf("store: %w", err)
	}
	for len(data) > 0 {
		rec, n, ok := decodeRecord(data)
		if !ok {
			// Torn or corrupt record: everything from here on is unreliable
			// (the framing after a bad length prefix is gone). Keep the
			// valid prefix; the rewrite below repairs the file.
			info.torn = true
			break
		}
		data = data[n:]
		p.total++
		if rec.FP == fp {
			p.index[rec.Key] = rec.Met
		}
	}
	// Repair torn tails; otherwise leave the segment alone unless enough of
	// it is garbage (superseded values, foreign fingerprints) to be worth a
	// rewrite — a warm open of a clean store must not rewrite anything.
	if info.torn || p.garbage()*compactGarbageDenom > p.total {
		if err := p.rewrite(fp); err != nil {
			return nil, info, err
		}
		info.compacted = true
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, info, fmt.Errorf("store: %w", err)
	}
	p.file = f
	return p, info, nil
}

// validMetrics rejects records whose payload decoded but is semantically
// impossible (NaN from bit rot); a corrupt result must degrade to
// recomputation, never to a wrong run.
func validMetrics(m engine.Metrics) bool {
	for _, v := range []float64{m.EpsMul, m.EpsLarge, m.EpsSmall, m.EMul, m.SigmaMaxLSB, m.SigmaMaxVolt, m.LSBVolt} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func (p *partition) garbage() int { return p.total - len(p.index) }

// rewrite snapshots the partition's live records to a temp file and
// atomically renames it over the segment. Callers hold p.mu (or exclusive
// access during load). The append handle, if open, is reopened by the
// caller via reopen.
func (p *partition) rewrite(fp string) error {
	tmp := p.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	// Encode each live record independently and concatenate them in sorted
	// byte order: a compacted segment's content is then a pure function of
	// the record set, not of Go's randomized map iteration — two processes
	// compacting identical data write identical bytes.
	recs := make([][]byte, 0, len(p.index))
	for key, met := range p.index {
		recs = append(recs, appendRecord(nil, record{FP: fp, Key: key, Met: met}))
	}
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i], recs[j]) < 0 })
	var buf []byte
	for _, rec := range recs {
		buf = append(buf, rec...)
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp, p.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compact: %w", err)
	}
	p.total = len(p.index)
	return nil
}

// reopen refreshes the append handle after a rewrite replaced the file.
func (p *partition) reopen() error {
	if p.file != nil {
		p.file.Close()
	}
	f, err := os.OpenFile(p.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	p.file = f
	return nil
}

// part routes a key to its partition by content hash (engine.Key.Hash: the
// hash covers every key field, so the mapping is stable across processes
// and hosts — the property a key-range-sharded remote store needs — and
// allocation-free, so routing costs nothing on the lookup path).
func (s *Store) part(key engine.Key) *partition {
	return s.parts[key.Hash()%uint64(len(s.parts))]
}

// Get implements engine.Store: an in-memory index lookup, fingerprint
// already enforced at load/append time.
func (s *Store) Get(key engine.Key) (engine.Metrics, bool) {
	p := s.part(key)
	p.mu.Lock()
	met, ok := p.index[key]
	p.mu.Unlock()
	if ok {
		s.n.getHits.Add(1)
	} else {
		s.n.getMisses.Add(1)
	}
	return met, ok
}

// Put persists a single result.
func (s *Store) Put(key engine.Key, met engine.Metrics) error {
	return s.PutBatch([]engine.CacheEntry{{Key: key, Met: met}})
}

// PutBatch implements engine.Store: results are grouped by partition and
// appended with one write per touched segment, amortizing syscall and lock
// traffic for batched submission.
func (s *Store) PutBatch(entries []engine.CacheEntry) error {
	if len(entries) == 0 {
		return nil
	}
	var putArg string
	if s.rec != nil {
		putArg = fmt.Sprintf("%d records", len(entries))
	}
	span := s.rec.StartSpan(0, obs.CatStore, "put-batch", putArg)
	defer span.End()
	s.n.putRecords.Add(uint64(len(entries)))
	nparts := uint64(len(s.parts))
	if len(entries) == 1 {
		return s.parts[entries[0].Key.Hash()%nparts].append(s.fp, entries)
	}
	// Bucket by partition into one exactly-sized backing array: a counting
	// pass, prefix sums, then stable placement. Entries keep their input
	// order within each partition, so duplicate keys in one batch resolve
	// last-wins exactly as looped Puts would.
	counts := make([]int, len(s.parts)+1)
	for i := range entries {
		counts[entries[i].Key.Hash()%nparts+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	offs := append([]int(nil), counts...)
	backing := make([]engine.CacheEntry, len(entries))
	for i := range entries {
		p := entries[i].Key.Hash() % nparts
		backing[counts[p]] = entries[i]
		counts[p]++
	}
	var firstErr error
	for i, p := range s.parts {
		group := backing[offs[i]:offs[i+1]]
		if len(group) == 0 {
			continue
		}
		if err := p.append(s.fp, group); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// append writes a group of records to one segment under its lock. The
// group is encoded outside the lock into one exactly-sized buffer, so the
// segment sees a single write syscall per batch.
func (p *partition) append(fp string, ents []engine.CacheEntry) error {
	size := 0
	for i := range ents {
		size += recordHeaderLen + recordBodyFixedLen + len(fp) + len(ents[i].Key.Backend)
	}
	buf := make([]byte, 0, size)
	for _, ent := range ents {
		buf = appendRecord(buf, record{FP: fp, Key: ent.Key, Met: ent.Met})
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.file.Write(buf); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	for _, ent := range ents {
		// Overwrites of an existing key leave the old record as garbage
		// until the next compaction.
		p.index[ent.Key] = ent.Met
		p.total++
	}
	return nil
}

// Compact rewrites every partition down to its live records (current
// fingerprint, latest value per key) via atomic write-then-rename.
func (s *Store) Compact() error {
	span := s.rec.StartSpan(0, obs.CatStore, "compact", "")
	defer span.End()
	for _, p := range s.parts {
		p.mu.Lock()
		err := p.rewrite(s.fp)
		if err == nil {
			err = p.reopen()
		}
		p.mu.Unlock()
		if err != nil {
			return err
		}
		s.n.compactions.Add(1)
	}
	return nil
}

// Stats summarizes the store's contents and the maintenance work it has
// performed since Open.
type Stats struct {
	// Live is the number of results servable under the open fingerprint.
	Live int
	// Garbage counts stale records (other fingerprints, superseded values)
	// awaiting compaction.
	Garbage int
	// Partitions is the segment count.
	Partitions int
	// Compactions counts partition rewrites: open-time repairs, the
	// open-time garbage threshold, and explicit Compact passes.
	Compactions int
	// TornTails counts segments whose truncated or corrupt tail was
	// repaired at open — the crash-recovery work that used to happen
	// silently.
	TornTails int
}

// String renders the stats for log lines. Maintenance clauses appear only
// when that work actually happened.
func (st Stats) String() string {
	out := fmt.Sprintf("%d results on disk (%d stale) across %d segments", st.Live, st.Garbage, st.Partitions)
	if st.TornTails > 0 {
		out += fmt.Sprintf(", %d torn tails repaired", st.TornTails)
	}
	if st.Compactions > 0 {
		out += fmt.Sprintf(", %d compactions", st.Compactions)
	}
	return out
}

// Stats returns a snapshot of the store's accounting.
func (s *Store) Stats() Stats {
	st := Stats{
		Partitions:  len(s.parts),
		Compactions: int(s.n.compactions.Load()),
		TornTails:   int(s.n.tornTails.Load()),
	}
	for _, p := range s.parts {
		p.mu.Lock()
		st.Live += len(p.index)
		st.Garbage += p.garbage()
		p.mu.Unlock()
	}
	return st
}

// Len returns the number of live results.
func (s *Store) Len() int { return s.Stats().Live }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close rewrites the manifest snapshot and closes the segment files.
// Appends are unbuffered, so no data is lost if Close is skipped.
func (s *Store) Close() error {
	err := s.writeManifest()
	s.closeFiles()
	return err
}

func (s *Store) closeFiles() {
	for _, p := range s.parts {
		if p == nil || p.file == nil {
			continue
		}
		p.mu.Lock()
		p.file.Close()
		p.file = nil
		p.mu.Unlock()
	}
	releaseLock(s.lock)
	s.lock = nil
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		// A torn manifest write must not brick the store: the segment scan
		// does not depend on it beyond the partition count, which a fresh
		// manifest below restores from the default/options.
		return nil, nil
	}
	return &m, nil
}

// writeManifest snapshots the store metadata via write-then-rename.
func (s *Store) writeManifest() error {
	m := manifest{Version: FormatVersion, Partitions: len(s.parts), Fingerprint: s.fp}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal manifest: %w", err)
	}
	path := filepath.Join(s.dir, manifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
