package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optima/internal/device"
	"optima/internal/dse"
)

// newCachedContext builds a fresh session over the shared quick-calibrated
// model with the persistent result store rooted at dir — the test analogue
// of one `optima <cmd> -cache-dir dir` invocation.
func newCachedContext(t *testing.T, dir string) *Context {
	t.Helper()
	base := testContext(t)
	ctx := NewContextWithModel(base.Model, base.Tech)
	ctx.CacheDir = dir
	return ctx
}

// TestStorePersistsAcrossSessions is the PR's acceptance scenario: a second
// session over the same cache directory (`optima all -cache-dir` after
// `optima dse -cache-dir`) performs zero backend evaluations for shared
// corners, and corrupting the store's tail degrades to recomputation —
// never to a wrong or failed run.
func TestStorePersistsAcrossSessions(t *testing.T) {
	dir := t.TempDir()

	// Session 1 — the `optima dse` role: sweep the 48-corner grid cold.
	ctx1 := newCachedContext(t, dir)
	mets1, err := ctx1.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if ctx1.Store() == nil {
		t.Fatal("CacheDir set but no store attached")
	}
	st := ctx1.Engine().Stats()
	if st.Misses != 48 || st.DiskHits != 0 {
		t.Fatalf("cold session stats %+v, want 48 misses", st)
	}
	if got := ctx1.Store().Len(); got != 48 {
		t.Fatalf("store holds %d results after the sweep, want 48", got)
	}
	if err := ctx1.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2 — the `optima all` role: the shared corners cost zero
	// backend evaluations (0 engine misses), and a condition sweep that
	// revisits the nominal point is disk-served too.
	ctx2 := newCachedContext(t, dir)
	mets2, err := ctx2.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	st = ctx2.Engine().Stats()
	if st.Misses != 0 {
		t.Fatalf("warm session re-evaluated %d corners, want 0 (stats %+v)", st.Misses, st)
	}
	if st.DiskHits != 48 {
		t.Fatalf("warm session stats %+v, want 48 disk hits", st)
	}
	for i := range mets1 {
		if mets1[i] != mets2[i] {
			t.Fatalf("disk-served corner %d differs from computed corner", i)
		}
	}
	sel, err := ctx2.Selection()
	if err != nil {
		t.Fatal(err)
	}
	vdds := []float64{device.NominalVDD} // nominal: already persisted
	if _, err := dse.SweepVDD(ctx2.Engine(), sel.FOM.Config, vdds); err != nil {
		t.Fatal(err)
	}
	if st = ctx2.Engine().Stats(); st.Misses != 0 {
		t.Fatalf("nominal revisit missed the store: %+v", st)
	}
	if err := ctx2.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the store's tails (torn final records). Session 3 must still
	// return byte-identical metrics, recomputing only the damage.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil || fi.Size() < 20 {
			continue
		}
		if err := os.Truncate(seg, fi.Size()-9); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no segment was corrupted; test is vacuous")
	}
	ctx3 := newCachedContext(t, dir)
	mets3, err := ctx3.Sweep()
	if err != nil {
		t.Fatalf("corrupt store tail must not fail the run: %v", err)
	}
	st = ctx3.Engine().Stats()
	if st.Misses == 0 {
		t.Fatal("torn tail records should force some recomputation")
	}
	if st.Misses+st.DiskHits != 48 {
		t.Fatalf("healed session stats %+v do not cover the grid", st)
	}
	for i := range mets1 {
		if mets1[i] != mets3[i] {
			t.Fatalf("post-corruption corner %d differs — wrong results are never acceptable", i)
		}
	}
	if err := ctx3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreFingerprintSeparatesCalibrations: a context over a *different*
// model (here: a perturbed copy) must not consume the first session's
// results.
func TestStoreFingerprintSeparatesCalibrations(t *testing.T) {
	dir := t.TempDir()
	ctx1 := newCachedContext(t, dir)
	if _, err := ctx1.Sweep(); err != nil {
		t.Fatal(err)
	}
	fp1 := ctx1.Fingerprint()
	if err := ctx1.Close(); err != nil {
		t.Fatal(err)
	}

	base := testContext(t)
	perturbed := *base.Model
	perturbed.Discharge.VthRef += 1e-3 // a recalibration that shifts results
	ctx2 := NewContextWithModel(&perturbed, base.Tech)
	ctx2.CacheDir = dir
	if ctx2.Fingerprint() == fp1 {
		t.Fatal("fingerprint blind to the model content")
	}
	if _, err := ctx2.Sweep(); err != nil {
		t.Fatal(err)
	}
	st := ctx2.Engine().Stats()
	if st.DiskHits != 0 {
		t.Fatalf("stale calibration served %d results", st.DiskHits)
	}
	if st.Misses != 48 {
		t.Fatalf("stats %+v, want a full recomputation", st)
	}
	if err := ctx2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreOpenFailureDegrades: an unusable cache directory — a file in
// its place, or a directory of the retired v1 layout — produces a working
// (memory-only) session, not a failed run.
func TestStoreOpenFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	// A file where the store directory should be makes Open fail.
	blocked := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(dir, "v1")
	if err := os.MkdirAll(v1, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(v1, "manifest.json"), []byte(`{"version": 1, "partitions": 16}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ dir, cause string }{
		{blocked, "persistent result store disabled"},
		{v1, "format version 1"},
	} {
		ctx := newCachedContext(t, tc.dir)
		if _, err := ctx.Sweep(); err != nil {
			t.Fatalf("%s: store open failure must degrade, not fail: %v", tc.dir, err)
		}
		if ctx.Store() != nil {
			t.Fatalf("%s: store unexpectedly attached", tc.dir)
		}
		// The cause stays queryable for long-lived callers (optima-server
		// reports it on /api/status), not just logged once at startup.
		if err := ctx.StoreError(); err == nil || !strings.Contains(err.Error(), tc.cause) {
			t.Fatalf("%s: StoreError() = %v, want a cause naming %q", tc.dir, err, tc.cause)
		}
		if st := ctx.Engine().Stats(); st.Misses != 48 {
			t.Fatalf("%s: memory-only session stats %+v", tc.dir, st)
		}
		if err := ctx.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
