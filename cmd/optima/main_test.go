package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optima/internal/cli"
)

// TestMakeContextRejectsCorruptModel: `optima dse -model` naming a file that
// exists but does not parse is an error. Recalibrating would hide it behind
// a "not found".
func TestMakeContextRejectsCorruptModel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := os.WriteFile(path, []byte(`{"Discharge": {"Base":`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runDSE([]string{"-model", path, "-out", filepath.Join(dir, "out")})
	if err == nil {
		t.Fatal("truncated model file: ran the sweep instead of failing")
	}
	if !strings.Contains(err.Error(), "parse model") {
		t.Fatalf("truncated model file: error %q, want a parse error", err)
	}
}

// TestMakeContextCalibratesWithoutModel: with the dse flag set, a -model
// path that does not exist yet still falls back to calibration (the
// subcommands have no -quick, so this is the default recipe).
func TestMakeContextCalibratesWithoutModel(t *testing.T) {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	f := cli.NewFlags(fs, engineFlags|cli.Conditions)
	if err := fs.Parse([]string{"-model", filepath.Join(t.TempDir(), "missing.json")}); err != nil {
		t.Fatal(err)
	}
	ctx, err := f.Open()
	if err != nil {
		t.Fatalf("missing model file: %v, want a calibrated context", err)
	}
	defer ctx.Close()
	if ctx.Model == nil {
		t.Fatal("missing model file: context has no model")
	}
}
