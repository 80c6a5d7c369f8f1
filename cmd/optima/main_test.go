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

// TestUnwritableTraceFailsCommand: a trace file that cannot be written
// when the session closes fails the command, through cli.Run (speedup) and
// through search's own prologue alike, instead of exiting 0 without it.
func TestUnwritableTraceFailsCommand(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "model.json")
	if err := runCalibrate([]string{"-quick", "-model", model}); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "missing", "t.json")
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"speedup", runSpeedup, []string{"-mc", "10"}},
		{"search", runSearch, []string{"-tau0", "0.16:0.28:4", "-vdac0", "0.3", "-vdacfs", "1.0", "-promote=false"}},
	} {
		args := append(tc.args, "-model", model, "-trace-out", trace, "-out", filepath.Join(dir, tc.name))
		err := tc.run(args)
		if err == nil || !strings.Contains(err.Error(), "trace") {
			t.Errorf("%s with an unwritable -trace-out: error %v, want one naming the trace", tc.name, err)
		}
	}
}
