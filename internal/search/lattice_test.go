package search

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"optima/internal/engine"
	"optima/internal/mult"
)

// refConfigs is the test oracle for Space.Configs and the search's rung-0
// sample: the triple loop the lattice replaced, which validates every
// corner with mult.Config.Validate and skips the invalid ones.
func refConfigs(s Space) ([]mult.Config, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	taus, v0s, fss := s.Tau0.Points(), s.VDAC0.Points(), s.VDACFS.Points()
	out := make([]mult.Config, 0, len(taus)*len(v0s)*len(fss))
	var firstErr error
	for _, tau := range taus {
		for _, v0 := range v0s {
			for _, fs := range fss {
				cfg := mult.Config{Tau0: tau, VDAC0: v0, VDACFS: fs}
				if err := cfg.Validate(); err == nil {
					out = append(out, cfg)
				} else if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("search: space has no valid corner: %w", firstErr)
	}
	return out, nil
}

// cornerBackend answers every cell instantly with metrics derived from
// its corner, so a search over any space runs in microseconds.
type cornerBackend struct{}

func (cornerBackend) Name() string { return "corner-fake" }

func (cornerBackend) EvaluateCell(_ engine.Eval, j engine.Job) (engine.Metrics, error) {
	c := j.Config
	return engine.Metrics{Config: c, Cond: j.Cond, EpsMul: c.Tau0 * 1e9, EMul: (c.VDACFS - c.VDAC0) * 1e-15}, nil
}

// checkLattice requires Configs, Size and Run's rung 0 to agree with the
// oracle on sp: the same corners element for element (or the same error
// text), and at budgets 0, 1, n−1, n and n+1 the space size, sample count
// and rung-0 candidates of sampleSubset over the oracle's list.
func checkLattice(t *testing.T, sp Space, seed uint64) {
	t.Helper()
	want, wantErr := refConfigs(sp)
	got, err := sp.Configs()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Configs error %v, oracle %v", err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Configs lists %d corners %v, oracle %d %v", len(got), got, len(want), want)
	}
	size, err := sp.Size()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || size != len(want) {
		t.Fatalf("Size %d (%v), oracle %d corners (%v)", size, err, len(want), wantErr)
	}
	if wantErr != nil {
		return
	}
	n := len(want)
	for _, budget := range []int{0, 1, n - 1, n, n + 1} {
		if budget < 0 {
			continue
		}
		// One rung whose halving ratio is the next float above 1 keeps every
		// candidate, so the finalists are rung 0's pool in pool order.
		res, err := Run(context.Background(), Options{
			Space: sp, Screen: engine.New(cornerBackend{}, 1),
			Budget: budget, Rungs: 1, Eta: math.Nextafter(1, 2), Seed: seed,
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		pool := sampleSubset(want, budget, seed)
		if res.Trace.SpaceSize != n || res.Trace.Sampled != len(pool) {
			t.Fatalf("budget %d: space %d, sampled %d; oracle %d, %d", budget, res.Trace.SpaceSize, res.Trace.Sampled, n, len(pool))
		}
		if len(res.Finalists) != len(pool) {
			t.Fatalf("budget %d: %d finalists, want all %d candidates of rung 0", budget, len(res.Finalists), len(pool))
		}
		for i, m := range res.Finalists {
			if m.Config != pool[i] {
				t.Fatalf("budget %d: rung-0 candidate %d is %v, oracle %v", budget, i, m.Config, pool[i])
			}
		}
	}
}

// TestSpaceLatticeMatchesConfigs: over value axes with non-positive τ0
// points, V_DAC,0 ≥ V_DAC,FS pairs and negative V_DAC,0, and over linear,
// log and subdivided axes, the lattice lists, counts and samples exactly
// the corners the validating triple loop did; spaces without a valid
// corner fail with its error text.
func TestSpaceLatticeMatchesConfigs(t *testing.T) {
	spaces := map[string]Space{
		"values with invalid corners": {
			Tau0:   ValuesAxis("tau0", -0.1e-9, 0, 0.16e-9, 0.2e-9),
			VDAC0:  ValuesAxis("vdac0", -0.2, 0, 0.3, 0.8),
			VDACFS: ValuesAxis("vdacfs", -0.1, 0.3, 0.7, 1.0),
		},
		"linear": {
			Tau0:   LinAxis("tau0", -0.04e-9, 0.28e-9, 9),
			VDAC0:  LinAxis("vdac0", 0.3, 1.0, 8),
			VDACFS: LinAxis("vdacfs", 0.7, 1.0, 4),
		},
		"log": {
			Tau0:   Axis{Name: "tau0", Min: 0.05e-9, Max: 0.4e-9, Steps: 7, Log: true},
			VDAC0:  Axis{Name: "vdac0", Min: 0.1, Max: 1.2, Steps: 6, Log: true},
			VDACFS: LinAxis("vdacfs", 0.5, 1.1, 5),
		},
		"subdivided": {
			Tau0:   ValuesAxis("tau0", 0, 0.16e-9, 0.28e-9).Subdivided(3),
			VDAC0:  LinAxis("vdac0", -0.3, 0.9, 4).Subdivided(2),
			VDACFS: Axis{Name: "vdacfs", Min: 0.5, Max: 1.0, Steps: 3, Log: true}.Subdivided(1),
		},
		"one corner": {
			Tau0:   ValuesAxis("tau0", 0.2e-9),
			VDAC0:  ValuesAxis("vdac0", 0.3),
			VDACFS: ValuesAxis("vdacfs", 0.9),
		},
		"no valid tau0": {
			Tau0:   ValuesAxis("tau0", -1e-9, 0),
			VDAC0:  ValuesAxis("vdac0", 0.3),
			VDACFS: ValuesAxis("vdacfs", 0.9),
		},
		"no valid pair": {
			Tau0:   ValuesAxis("tau0", 0.2e-9, 0.3e-9),
			VDAC0:  ValuesAxis("vdac0", -0.5, 0.9),
			VDACFS: ValuesAxis("vdacfs", -0.7, 0.5, 0.9),
		},
		"no valid corner on either rule": {
			Tau0:   ValuesAxis("tau0", 0),
			VDAC0:  ValuesAxis("vdac0", 0.9),
			VDACFS: ValuesAxis("vdacfs", 0.5),
		},
		"invalid axis": {
			Tau0:   LinAxis("tau0", 2, 1, 3),
			VDAC0:  ValuesAxis("vdac0", 0.3),
			VDACFS: ValuesAxis("vdacfs", 0.9),
		},
	}
	for name, sp := range spaces {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				checkLattice(t, sp, seed)
			}
		})
	}
}

// FuzzSpaceLattice: on any space, the lattice lists, counts and samples
// what the validating triple loop did. Each axis reads a kind byte (value
// list, linear, log or subdivided) and parameter bytes from a small level
// set that spans negative, zero and positive τ0 and DAC voltages, so
// spaces are rich in invalid corners and invalid axes.
func FuzzSpaceLattice(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 6, 0, 3, 0, 2, 5, 0, 3, 1, 3, 7}, uint64(1))
	f.Add([]byte{1, 0, 9, 5, 1, 2, 8, 4, 2, 3, 9, 3}, uint64(7))
	f.Add([]byte{3, 2, 3, 1, 2, 1, 4, 2, 7, 3, 3, 9, 0, 2}, uint64(3))
	f.Add([]byte{0, 1, 0, 0, 1, 9, 0, 1, 2}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		axis := func(name string, scale float64) Axis {
			level := func() float64 { return float64(next()%10-2) * scale }
			switch kind := next() % 4; kind {
			case 0, 3:
				vals := make([]float64, 1+next()%5)
				for i := range vals {
					vals[i] = level()
				}
				a := ValuesAxis(name, vals...)
				if kind == 3 {
					a = a.Subdivided(next() % 4) // an invalid list stays invalid
				}
				return a
			case 1:
				return LinAxis(name, level(), level(), 1+next()%6)
			default:
				return Axis{Name: name, Min: level(), Max: level(), Steps: 1 + next()%6, Log: true}
			}
		}
		sp := Space{Tau0: axis("tau0", 0.05e-9), VDAC0: axis("vdac0", 0.15), VDACFS: axis("vdacfs", 0.15)}
		checkLattice(t, sp, seed)
	})
}
