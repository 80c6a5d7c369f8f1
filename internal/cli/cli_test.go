package cli

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optima/internal/core"
	"optima/internal/engine"
	"optima/internal/store"
)

// corruptModel writes a truncated model file and returns its path.
func corruptModel(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(`{"Discharge": {"Base":`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenRejectsCorruptModel: a -model file that exists but does not parse
// is an error. Recalibrating would hide it behind a "not found".
func TestOpenRejectsCorruptModel(t *testing.T) {
	f := Flags{Model: corruptModel(t), Quick: true}
	ctx, err := f.Open()
	if err == nil {
		ctx.Close()
		t.Fatal("truncated model file: calibrated instead of failing")
	}
	if !strings.Contains(err.Error(), "parse model") {
		t.Fatalf("truncated model file: error %q, want a parse error", err)
	}
}

// TestMissingModelCalibrates: a -model path that does not exist yet
// calibrates with the -quick recipe, both in Open (optima, optima-server,
// optima-dnn) and in Session (optima calibrate, optima-worker), and the
// two arrive at the same calibration fingerprint, so such a worker joins
// such a coordinator.
func TestMissingModelCalibrates(t *testing.T) {
	f := Flags{Model: filepath.Join(t.TempDir(), "missing.json"), Quick: true}
	ctx, err := f.Open()
	if err != nil {
		t.Fatalf("missing model file: %v, want a calibrated context", err)
	}
	defer ctx.Close()
	if ctx.Model == nil {
		t.Fatal("missing model file: context has no model")
	}

	worker, err := f.Session()
	if err != nil {
		t.Fatalf("missing model file: Session: %v", err)
	}
	if worker.Fingerprint() != ctx.Fingerprint() {
		t.Fatalf("Session fingerprint %s, Open fingerprint %s: a worker would be rejected", worker.Fingerprint(), ctx.Fingerprint())
	}
}

// TestOpenTakesRecipeSolverSettings: the opened context carries the
// recipe's solver settings, not the solver's defaults, and its fingerprint
// is the calibration identity over the model, the recipe's technology card
// and its solver settings — the one a worker loading the same model sends.
func TestOpenTakesRecipeSolverSettings(t *testing.T) {
	calib := core.QuickCalibration()
	model, err := core.Calibrate(calib)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	f := Flags{Model: path, Quick: true}
	ctx, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	if ctx.Spice != calib.Spice || ctx.Tech != calib.Tech {
		t.Fatalf("opened context solver %+v, tech %+v; the recipe's are %+v, %+v", ctx.Spice, ctx.Tech, calib.Spice, calib.Tech)
	}
	want, err := store.Fingerprint(engine.MetricsSchema, ctx.Model, calib.Tech, calib.Spice)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Fingerprint() != want {
		t.Fatalf("opened fingerprint %s, want %s", ctx.Fingerprint(), want)
	}
	worker, err := f.Session()
	if err != nil {
		t.Fatal(err)
	}
	if worker.Fingerprint() != want {
		t.Fatalf("worker fingerprint %s, want the coordinator's %s", worker.Fingerprint(), want)
	}
}

// TestOpenChecksFlagsBeforeModel: a bad -backend, -conditions or -log-level
// is reported even when -model is corrupt, so the flags are checked before
// the model is read (and long before any calibration).
func TestOpenChecksFlagsBeforeModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Flags
		want string
	}{
		{"backend", Flags{Backend: "spice"}, "unknown backend"},
		{"conditions", Flags{Conditions: "TT@1.0V"}, "want CORNER@<vdd>V@<temp>C"},
		{"log-level", Flags{LogLevel: "loud"}, "bad -log-level"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.f.Model = corruptModel(t)
			ctx, err := tc.f.Open()
			if err == nil {
				ctx.Close()
				t.Fatal("Open succeeded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want the -%s error (%q)", err, tc.name, tc.want)
			}
		})
	}
}

// TestOpenClosesFleetOnFailure: when a step after -remote fails, Open
// releases the fleet's listener, so a retry can bind the same address.
func TestOpenClosesFleetOnFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	f := Flags{Quick: true, Remote: addr, CPUProfile: filepath.Join(t.TempDir(), "missing", "cpu.pprof")}
	ctx, err := f.Open()
	if err == nil {
		ctx.Close()
		t.Fatal("unwritable -cpuprofile: Open succeeded")
	}
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("after the failed Open, %s is still held: %v", addr, err)
	}
	ln.Close()
}
