package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optima/internal/engine"
)

// TestMakeContextRejectsCorruptModel: a -model file that exists but does not
// parse stops the server at startup instead of recalibrating behind a
// "model not found" warning.
func TestMakeContextRejectsCorruptModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(`{"Discharge": {"Base":`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, err := makeContext(path, true, 1, engine.BackendBehavioral, "", "", 0, 0)
	if err == nil {
		ctx.Close()
		t.Fatal("truncated model file: calibrated instead of failing")
	}
	if !strings.Contains(err.Error(), "parse model") {
		t.Fatalf("truncated model file: error %q, want a parse error", err)
	}
}

// TestMakeContextCalibratesWithoutModel: a -model path that does not exist
// yet still falls back to calibration.
func TestMakeContextCalibratesWithoutModel(t *testing.T) {
	ctx, err := makeContext(filepath.Join(t.TempDir(), "missing.json"), true, 1, engine.BackendBehavioral, "", "", 0, 0)
	if err != nil {
		t.Fatalf("missing model file: %v, want a calibrated context", err)
	}
	defer ctx.Close()
	if ctx.Model == nil {
		t.Fatal("missing model file: context has no model")
	}
}
