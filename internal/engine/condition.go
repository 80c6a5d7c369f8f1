package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"optima/internal/device"
	"optima/internal/mult"
)

// ConditionSet is an ordered, duplicate-free set of operating conditions —
// the cross-condition axis of the evaluation plane. Its canonical string
// form ("TT@1V@27C,SS@0.9V@60C") names the set in artifacts and flags, and
// its order is the column order of every Matrix built from it, so results
// are deterministic for a given spec. The set never changes how results are
// keyed: each (config, condition) pair remains an independent cache/store
// key, which is why every cache tier works unchanged under EvaluateMatrix.
//
// The zero value is the empty set; most callers should treat it as "nominal
// only" (NominalConditions).
type ConditionSet struct {
	conds []device.PVT
}

// NewConditionSet builds a set from the given conditions, preserving order.
// Every condition is validated (known corner, positive finite supply,
// physical finite temperature) and duplicates are rejected — a duplicate in
// a robust ranking would silently double-weight one excursion.
func NewConditionSet(conds ...device.PVT) (ConditionSet, error) {
	if len(conds) == 0 {
		return ConditionSet{}, fmt.Errorf("engine: empty condition set")
	}
	seen := make(map[device.PVT]bool, len(conds))
	out := make([]device.PVT, 0, len(conds))
	for _, c := range conds {
		if err := ValidateCondition(c); err != nil {
			return ConditionSet{}, err
		}
		if seen[c] {
			return ConditionSet{}, fmt.Errorf("engine: duplicate condition %s in set", FormatCondition(c))
		}
		seen[c] = true
		out = append(out, c)
	}
	return ConditionSet{conds: out}, nil
}

// NominalConditions is the single-condition set at device.Nominal() — the
// set every pre-condition-plane call site implicitly evaluated at.
func NominalConditions() ConditionSet {
	return ConditionSet{conds: []device.PVT{device.Nominal()}}
}

// ValidateCondition rejects conditions that cannot be evaluated or
// round-tripped through the canonical spec form.
func ValidateCondition(c device.PVT) error {
	if _, err := device.ParseCorner(c.Corner.String()); err != nil {
		return fmt.Errorf("engine: condition has unmodeled corner %v", c.Corner)
	}
	if math.IsNaN(c.VDD) || math.IsInf(c.VDD, 0) || c.VDD <= 0 {
		return fmt.Errorf("engine: condition %s: supply %v V must be a positive finite voltage", c.Corner, c.VDD)
	}
	if math.IsNaN(c.TempC) || math.IsInf(c.TempC, 0) || c.TempC <= -device.ZeroCelsius {
		return fmt.Errorf("engine: condition %s: temperature %v C must be finite and above absolute zero", c.Corner, c.TempC)
	}
	return nil
}

// FormatCondition renders one condition in the canonical spec form
// CORNER@<vdd>V@<temp>C (e.g. "SS@0.9V@60C"). ParseCondition inverts it
// exactly: %g formatting keeps the float64 values round-trippable.
func FormatCondition(c device.PVT) string {
	return fmt.Sprintf("%s@%gV@%gC", c.Corner, c.VDD, c.TempC)
}

// ParseCondition parses one canonical condition spec. The supply and
// temperature units are mandatory suffixes — a bare "SS@0.9@60" is
// ambiguous about which field is which and is rejected.
func ParseCondition(spec string) (device.PVT, error) {
	parts := strings.Split(strings.TrimSpace(spec), "@")
	if len(parts) != 3 {
		return device.PVT{}, fmt.Errorf("engine: condition %q: want CORNER@<vdd>V@<temp>C (e.g. TT@1.0V@27C)", spec)
	}
	corner, err := device.ParseCorner(parts[0])
	if err != nil {
		return device.PVT{}, fmt.Errorf("engine: condition %q: %w", spec, err)
	}
	vdd, err := parseUnit(parts[1], "V")
	if err != nil {
		return device.PVT{}, fmt.Errorf("engine: condition %q: supply %w", spec, err)
	}
	temp, err := parseUnit(parts[2], "C")
	if err != nil {
		return device.PVT{}, fmt.Errorf("engine: condition %q: temperature %w", spec, err)
	}
	cond := device.PVT{Corner: corner, VDD: vdd, TempC: temp}
	if err := ValidateCondition(cond); err != nil {
		return device.PVT{}, err
	}
	return cond, nil
}

// parseUnit parses a float with a mandatory unit suffix ("1.0V", "-40C").
func parseUnit(s, unit string) (float64, error) {
	s = strings.TrimSpace(s)
	if !strings.HasSuffix(s, unit) {
		return 0, fmt.Errorf("%q: missing %s unit suffix", s, unit)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, unit), 64)
	if err != nil {
		return 0, fmt.Errorf("%q: not a number", s)
	}
	return v, nil
}

// ParseConditionSet parses a comma-separated condition-set spec, e.g.
// "TT@1.0V@27C,SS@0.90V@60C,FF@1.10V@0C" — the one place the -conditions
// flag of every CLI is parsed and validated. Order is preserved;
// duplicates (after parsing, so "1.0V" and "1V" collide) are rejected.
func ParseConditionSet(spec string) (ConditionSet, error) {
	fields := strings.Split(spec, ",")
	conds := make([]device.PVT, 0, len(fields))
	for _, f := range fields {
		if strings.TrimSpace(f) == "" {
			return ConditionSet{}, fmt.Errorf("engine: condition set %q has an empty entry", spec)
		}
		c, err := ParseCondition(f)
		if err != nil {
			return ConditionSet{}, err
		}
		conds = append(conds, c)
	}
	return NewConditionSet(conds...)
}

// Len returns the number of conditions in the set.
func (s ConditionSet) Len() int { return len(s.conds) }

// At returns the j-th condition in set order.
func (s ConditionSet) At(j int) device.PVT { return s.conds[j] }

// String returns the canonical spec form of the set —
// ParseConditionSet(s.String()) reproduces s exactly.
func (s ConditionSet) String() string {
	names := make([]string, len(s.conds))
	for j, c := range s.conds {
		names[j] = FormatCondition(c)
	}
	return strings.Join(names, ",")
}

// Matrix is the result of a cross-condition batch: one Metrics per
// (config, condition) pair, indexed [config][condition] with configs in
// submission order and conditions in set order. Like every engine result it
// is deterministic — independent of the worker count and of which cache
// tier served each cell.
type Matrix struct {
	Configs []mult.Config
	Conds   ConditionSet
	mets    []Metrics // row-major: config i, condition j at i*Conds.Len()+j
}

// At returns the metrics of config i at condition j.
func (m *Matrix) At(i, j int) Metrics { return m.mets[i*m.Conds.Len()+j] }

// Row returns config i's metrics across the condition set, in set order.
// The slice aliases the matrix; callers must not modify it.
func (m *Matrix) Row(i int) []Metrics {
	k := m.Conds.Len()
	return m.mets[i*k : (i+1)*k : (i+1)*k]
}

// Col returns condition j's metrics across the configs, in config order.
func (m *Matrix) Col(j int) []Metrics {
	out := make([]Metrics, len(m.Configs))
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}

// MatrixJobs expands configs × conditions into the engine's job order:
// config-major, conditions innermost — the flat layout Matrix indexes.
func MatrixJobs(cfgs []mult.Config, conds ConditionSet) []Job {
	jobs := make([]Job, 0, len(cfgs)*conds.Len())
	for _, cfg := range cfgs {
		for _, cond := range conds.conds {
			jobs = append(jobs, Job{Config: cfg, Cond: cond})
		}
	}
	return jobs
}

// EvaluateMatrix scores every config at every condition of the set through
// the batched submission path: the whole plane is claimed as one batch, so
// the worker pool, in-batch dedupe, store lookups and grouped persists all
// amortize across configs AND conditions — a Fig. 8 excursion analysis hits
// the same scheduler as a 48-corner sweep instead of looping conditions
// serially. Each (config, condition) cell keeps its independent cache key,
// so partial overlap with earlier work (any tier) is served, not recomputed.
func (e *Engine) EvaluateMatrix(cfgs []mult.Config, conds ConditionSet) (*Matrix, error) {
	return e.EvaluateMatrixOpts(cfgs, conds, BatchOptions{})
}

// EvaluateMatrixOpts is EvaluateMatrix with a cancellation context and a
// per-cell progress callback (BatchOptions): done/total count resolved
// (config, condition) cells of the plane.
func (e *Engine) EvaluateMatrixOpts(cfgs []mult.Config, conds ConditionSet, opts BatchOptions) (*Matrix, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("engine: matrix with no configurations")
	}
	if conds.Len() == 0 {
		return nil, fmt.Errorf("engine: matrix with an empty condition set")
	}
	mets, err := e.EvaluateBatchOpts(MatrixJobs(cfgs, conds), opts)
	if err != nil {
		return nil, err
	}
	return &Matrix{Configs: append([]mult.Config(nil), cfgs...), Conds: conds, mets: mets}, nil
}
