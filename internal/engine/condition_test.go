package engine

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"optima/internal/device"
	"optima/internal/mult"
)

func TestParseConditionValid(t *testing.T) {
	cases := []struct {
		spec string
		want device.PVT
	}{
		{"TT@1.0V@27C", device.PVT{Corner: device.CornerTT, VDD: 1.0, TempC: 27}},
		{"SS@0.90V@60C", device.PVT{Corner: device.CornerSS, VDD: 0.90, TempC: 60}},
		{"FF@1.10V@0C", device.PVT{Corner: device.CornerFF, VDD: 1.10, TempC: 0}},
		{"FF@1.1V@-40C", device.PVT{Corner: device.CornerFF, VDD: 1.1, TempC: -40}},
		{"tt@1V@27C", device.PVT{Corner: device.CornerTT, VDD: 1, TempC: 27}}, // corner case-insensitive
		{" TT@1V@27C ", device.PVT{Corner: device.CornerTT, VDD: 1, TempC: 27}},
	}
	for _, tc := range cases {
		got, err := ParseCondition(tc.spec)
		if err != nil {
			t.Errorf("ParseCondition(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseCondition(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseConditionInvalid(t *testing.T) {
	cases := []struct {
		name, spec string
	}{
		{"unknown-corner", "XX@1.0V@27C"},
		{"missing-volt-unit", "TT@1.0@27C"},
		{"missing-temp-unit", "TT@1.0V@27"},
		{"swapped-units", "TT@27C@1.0V"},
		{"two-fields", "TT@1.0V"},
		{"four-fields", "TT@1.0V@27C@extra"},
		{"empty", ""},
		{"non-numeric-vdd", "TT@fastV@27C"},
		{"zero-vdd", "TT@0V@27C"},
		{"negative-vdd", "TT@-1V@27C"},
		{"below-absolute-zero", "TT@1V@-300C"},
	}
	for _, tc := range cases {
		if _, err := ParseCondition(tc.spec); err == nil {
			t.Errorf("%s: ParseCondition(%q) accepted, want error", tc.name, tc.spec)
		}
	}
}

func TestParseConditionSet(t *testing.T) {
	set, err := ParseConditionSet("TT@1.0V@27C,SS@0.90V@60C,FF@1.10V@0C")
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Fatalf("set has %d conditions, want 3", set.Len())
	}
	// Order is the spec order.
	want := []device.PVT{
		{Corner: device.CornerTT, VDD: 1.0, TempC: 27},
		{Corner: device.CornerSS, VDD: 0.90, TempC: 60},
		{Corner: device.CornerFF, VDD: 1.10, TempC: 0},
	}
	for j, c := range want {
		if set.At(j) != c {
			t.Fatalf("At(%d) = %v, want %v", j, set.At(j), c)
		}
	}

	// Canonical round trip: String re-parses to the identical set.
	back, err := ParseConditionSet(set.String())
	if err != nil {
		t.Fatalf("round trip of %q: %v", set.String(), err)
	}
	if !reflect.DeepEqual(back, set) {
		t.Fatalf("round trip changed the set: %q -> %q", set.String(), back.String())
	}
}

func TestParseConditionSetRejectsDuplicatesAndEmpties(t *testing.T) {
	// "1.0V" and "1V" are the same float: a duplicate would double-weight
	// the excursion in a robust ranking.
	if _, err := ParseConditionSet("TT@1.0V@27C,TT@1V@27C"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate conditions accepted (err=%v)", err)
	}
	for _, spec := range []string{"", "TT@1V@27C,", ",TT@1V@27C", "TT@1V@27C,,SS@0.9V@60C"} {
		if _, err := ParseConditionSet(spec); err == nil {
			t.Errorf("ParseConditionSet(%q) accepted, want error", spec)
		}
	}
	if _, err := NewConditionSet(); err == nil {
		t.Fatal("empty NewConditionSet accepted")
	}
	if _, err := NewConditionSet(device.PVT{Corner: device.CornerTT, VDD: math.NaN(), TempC: 27}); err == nil {
		t.Fatal("NaN supply accepted")
	}
}

func TestNominalConditions(t *testing.T) {
	set := NominalConditions()
	if set.Len() != 1 || set.At(0) != device.Nominal() {
		t.Fatalf("NominalConditions = %v", set)
	}
	if set.String() != FormatCondition(device.Nominal()) {
		t.Fatalf("canonical form %q", set.String())
	}
}

func matrixFixture(t *testing.T) ([]mult.Config, ConditionSet) {
	t.Helper()
	cfgs := make([]mult.Config, 6)
	for i := range cfgs {
		cfgs[i] = mult.Config{Tau0: float64(i+1) * 0.1e-9, VDAC0: 0.3, VDACFS: 1.0}
	}
	conds, err := ParseConditionSet("TT@1V@27C,SS@0.9V@60C,FF@1.1V@0C")
	if err != nil {
		t.Fatal(err)
	}
	return cfgs, conds
}

// TestEvaluateMatrixLayoutAndAccounting pins the matrix contract: cells are
// indexed [config][condition] with configs in submission order and
// conditions in set order, every (config, condition) pair is one
// independent cache key (misses = cells on a cold engine, hits = cells on
// re-submission), and a partially overlapping matrix only computes the new
// cells.
func TestEvaluateMatrixLayoutAndAccounting(t *testing.T) {
	cfgs, conds := matrixFixture(t)
	fake := &fakeBackend{}
	eng := New(fake, 4)

	mat, err := eng.EvaluateMatrix(cfgs, conds)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(cfgs) * conds.Len()
	if got := fake.evals.Load(); got != int64(cells) {
		t.Fatalf("cold matrix ran %d backend evaluations, want %d", got, cells)
	}
	st := eng.Stats()
	if st.Misses != uint64(cells) || st.Hits != 0 || st.Entries != cells {
		t.Fatalf("cold stats %+v, want %d misses / 0 hits / %d entries", st, cells, cells)
	}
	for i, cfg := range cfgs {
		for j := 0; j < conds.Len(); j++ {
			met := mat.At(i, j)
			if met.Config != cfg || met.Cond != conds.At(j) {
				t.Fatalf("cell (%d,%d) holds (%v, %v), want (%v, %v)",
					i, j, met.Config, met.Cond, cfg, conds.At(j))
			}
		}
		if len(mat.Row(i)) != conds.Len() {
			t.Fatalf("row %d has %d cells, want %d", i, len(mat.Row(i)), conds.Len())
		}
	}
	for j := 0; j < conds.Len(); j++ {
		col := mat.Col(j)
		if len(col) != len(cfgs) {
			t.Fatalf("column %d has %d cells", j, len(col))
		}
		for i := range col {
			if col[i] != mat.At(i, j) {
				t.Fatalf("column view disagrees with At at (%d,%d)", i, j)
			}
		}
	}

	// Re-submission: all hits, no new backend work.
	if _, err := eng.EvaluateMatrix(cfgs, conds); err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != int64(cells) {
		t.Fatalf("warm matrix re-ran the backend: %d evaluations", got)
	}
	st = eng.Stats()
	if st.Hits != uint64(cells) {
		t.Fatalf("warm stats %+v, want %d hits", st, cells)
	}

	// Partial overlap: a wider condition set only computes the new column.
	wider, err := ParseConditionSet("TT@1V@27C,SS@0.9V@60C,FF@1.1V@0C,TT@0.95V@45C")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EvaluateMatrix(cfgs, wider); err != nil {
		t.Fatal(err)
	}
	wantEvals := int64(cells + len(cfgs))
	if got := fake.evals.Load(); got != wantEvals {
		t.Fatalf("overlapping matrix ran %d total evaluations, want %d (only the new column)", got, wantEvals)
	}
}

// TestEvaluateMatrixWorkerInvariance: the matrix is byte-identical at any
// worker budget — the cross-condition extension of the sweep guarantee.
func TestEvaluateMatrixWorkerInvariance(t *testing.T) {
	cfgs, conds := matrixFixture(t)
	run := func(workers int) *Matrix {
		mat, err := New(&fakeBackend{}, workers).EvaluateMatrix(cfgs, conds)
		if err != nil {
			t.Fatal(err)
		}
		return mat
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Fatal("matrix differs between workers=1 and workers=8")
	}
}

func TestEvaluateMatrixValidation(t *testing.T) {
	cfgs, conds := matrixFixture(t)
	eng := New(&fakeBackend{}, 1)
	if _, err := eng.EvaluateMatrix(nil, conds); err == nil {
		t.Fatal("empty config list accepted")
	}
	if _, err := eng.EvaluateMatrix(cfgs, ConditionSet{}); err == nil {
		t.Fatal("empty condition set accepted")
	}
}

// TestEvaluateMatrixErrorNamesCondition: a failing cell's error names both
// the configuration and the operating condition — a PVT sweep must say
// which excursion point failed.
func TestEvaluateMatrixErrorNamesCondition(t *testing.T) {
	cfgs, conds := matrixFixture(t)
	fake := &fakeBackend{fail: cfgs[2]}
	_, err := New(fake, 4).EvaluateMatrix(cfgs, conds)
	if err == nil {
		t.Fatal("failing corner did not error")
	}
	if !strings.Contains(err.Error(), conds.At(0).String()) {
		t.Fatalf("error does not name the failing condition: %v", err)
	}
}
