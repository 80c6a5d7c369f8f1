package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optima/internal/cli"
)

// openSession parses args with the server's shared flags and opens the
// session the way run does.
func openSession(t *testing.T, args ...string) error {
	t.Helper()
	fs := flag.NewFlagSet("optima-server", flag.ContinueOnError)
	f := cli.NewFlags(fs, sessionFlags)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	ctx, err := f.Open()
	if err != nil {
		return err
	}
	defer ctx.Close()
	if ctx.Model == nil {
		t.Fatal("session has no model")
	}
	return nil
}

// TestMakeContextRejectsCorruptModel: a -model file that exists but does not
// parse is an error. Recalibrating would hide it behind a "not found".
func TestMakeContextRejectsCorruptModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(`{"Discharge": {"Base":`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := openSession(t, "-model", path, "-quick")
	if err == nil {
		t.Fatal("truncated model file: calibrated instead of failing")
	}
	if !strings.Contains(err.Error(), "parse model") {
		t.Fatalf("truncated model file: error %q, want a parse error", err)
	}
}

// TestMakeContextCalibratesWithoutModel: a -model path that does not exist
// yet still falls back to calibration.
func TestMakeContextCalibratesWithoutModel(t *testing.T) {
	if err := openSession(t, "-model", filepath.Join(t.TempDir(), "missing.json"), "-quick"); err != nil {
		t.Fatalf("missing model file: %v, want a calibrated session", err)
	}
}
