package cli

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// optima-dnn) and in LoadModel (optima-worker), and the two arrive at the
// same calibration fingerprint, so such a worker joins such a coordinator.
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

	model, calib, err := f.LoadModel()
	if err != nil {
		t.Fatalf("missing model file: LoadModel: %v", err)
	}
	fp, err := store.Fingerprint(engine.MetricsSchema, model, calib.Tech, calib.Spice)
	if err != nil {
		t.Fatal(err)
	}
	if fp != ctx.Fingerprint() {
		t.Fatalf("LoadModel fingerprint %s, Open fingerprint %s: a worker would be rejected", fp, ctx.Fingerprint())
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
