package spice

import (
	"errors"
	"math"
	"sync"
	"testing"

	"optima/internal/device"
	"optima/internal/stats"
)

// paperTau0s are the τ0 axis of the paper's design grid.
var paperTau0s = []float64{0.16e-9, 0.20e-9, 0.24e-9, 0.28e-9}

// paperBitTimes are the grid's bit times 2^i·τ0, every bit of every τ0.
func paperBitTimes() []float64 {
	var out []float64
	for _, tau := range paperTau0s {
		for i := 0; i < 4; i++ {
			out = append(out, float64(uint(1)<<uint(i))*tau)
		}
	}
	return out
}

// memoPaths are discharge stacks over word-line voltages, matched and with
// sampled mismatch, at each condition.
func memoPaths(conds []device.PVT, vwls []float64) []*DischargePath {
	tech := device.Generic65()
	rng := stats.NewRNG(11)
	var out []*DischargePath
	for _, cond := range conds {
		for _, vwl := range vwls {
			out = append(out, NewDischargePath(tech, vwl, cond))
			mm := NewDischargePath(tech, vwl, cond)
			mm.SampleMismatch(rng)
			out = append(out, mm)
		}
	}
	return out
}

// read is one duration of one path.
type read struct {
	path *DischargePath
	t    float64
}

// freshFinal is the final V_BLB of a fresh transient, the reference every
// memo read must equal.
func freshFinal(t *testing.T, d *DischargePath, duration float64, cfg Config) float64 {
	t.Helper()
	res, err := d.Discharge(duration, cfg, 0)
	if err != nil {
		t.Fatalf("fresh run to %g s: %v", duration, err)
	}
	return res.Waveform.Final()[0]
}

// TestTrajectoriesFinalMatchesFresh pins memo reads to fresh transients bit
// for bit over the paper grid's bit times, requested in shuffled order so
// that later reads resume earlier trajectories from checkpoints, for
// matched and mismatched paths at nominal and two off-nominal conditions.
// The memo runs unbounded and with a cap so small that every read evicts.
// DischargeFinal, which records no waveform, must agree as well.
func TestTrajectoriesFinalMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	conds := []device.PVT{
		device.Nominal(),
		{Corner: device.CornerSS, VDD: 0.9, TempC: 85},
		{Corner: device.CornerFF, VDD: 1.1, TempC: -20},
	}
	var reads []read
	for _, p := range memoPaths(conds, []float64{0.3, 0.4, 0.5, 0.65, 0.8, 0.9, 1.0}) {
		for _, bt := range paperBitTimes() {
			reads = append(reads, read{p, bt})
		}
	}
	want := make([]float64, len(reads))
	for i, r := range reads {
		want[i] = freshFinal(t, r.path, r.t, cfg)
		got, err := r.path.DischargeFinal(r.t, cfg, nil)
		if err != nil || math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("DischargeFinal(%g) = %v, %v; the waveform's final state is %v", r.t, got, err, want[i])
		}
	}
	served := 0
	for _, capBytes := range []int{math.MaxInt, 1} {
		m := newTrajectories(capBytes)
		var scr Scratch
		for _, i := range stats.NewRNG(5).Perm(len(reads)) {
			r := reads[i]
			got, err := m.Final(r.path, r.t, cfg, &scr)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("cap %d: VWL %g at %v, %g s: memo %v, fresh %v", capBytes, r.path.VWL, r.path.Cond, r.t, got, want[i])
			}
			served++
		}
		trajs := uint64(len(reads) / len(paperBitTimes()))
		if capBytes == math.MaxInt && (m.n.integrated.Load() != trajs || m.n.evictions.Load() != 0) {
			t.Fatalf("unbounded memo integrated %d trajectories and evicted %d; want %d and 0",
				m.n.integrated.Load(), m.n.evictions.Load(), trajs)
		}
		if capBytes == 1 && m.n.evictions.Load() != m.n.integrated.Load() {
			t.Fatalf("1-byte memo evicted %d of %d trajectories", m.n.evictions.Load(), m.n.integrated.Load())
		}
		if m.n.reads.Load() != uint64(len(reads)) {
			t.Fatalf("memo counted %d reads, served %d", m.n.reads.Load(), len(reads))
		}
	}
	if served != 1344 {
		t.Fatalf("pinned %d reads, want 1344", served)
	}
}

// TestTrajectoriesSamplesMatchWaveform pins the trim's reads: the V_BLB
// samples at the four bit times of a run to 8τ0 equal
// Waveform.NodeAt(0, t) of that run bit for bit, with τ0 requested in
// shuffled order so that shorter horizons replay trajectories that longer
// ones already extended.
func TestTrajectoriesSamplesMatchWaveform(t *testing.T) {
	cfg := DefaultConfig()
	paths := memoPaths([]device.PVT{device.Nominal()}, []float64{0.3, 0.5, 0.7, 0.85, 1.0})
	type trim struct {
		path *DischargePath
		tau  float64
	}
	var trims []trim
	for _, p := range paths {
		for _, tau := range paperTau0s {
			trims = append(trims, trim{p, tau})
		}
	}
	for _, capBytes := range []int{math.MaxInt, 1} {
		m := newTrajectories(capBytes)
		samples := 0
		for _, i := range stats.NewRNG(3).Perm(len(trims)) {
			tr := trims[i]
			at := []float64{tr.tau, 2 * tr.tau, 4 * tr.tau, 8 * tr.tau}
			res, err := tr.path.Discharge(8*tr.tau, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Samples(tr.path, 8*tr.tau, at, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j, a := range at {
				if want := res.Waveform.NodeAt(0, a); math.Float64bits(got[j]) != math.Float64bits(want) {
					t.Fatalf("cap %d: VWL %g, τ0 %g, t=%g: memo %v, waveform %v", capBytes, tr.path.VWL, tr.tau, a, got[j], want)
				}
				samples++
			}
		}
		if samples != 160 {
			t.Fatalf("pinned %d samples, want 160", samples)
		}
	}
}

// TestTrajectoriesConcurrentReads runs the same reads from four goroutines
// on one memo that evicts on every read (run with -race).
func TestTrajectoriesConcurrentReads(t *testing.T) {
	cfg := DefaultConfig()
	conds := []device.PVT{device.Nominal(), {Corner: device.CornerSS, VDD: 0.9, TempC: 85}}
	var reads []read
	for _, p := range memoPaths(conds, []float64{0.4, 0.8}) {
		for _, bt := range paperBitTimes() {
			reads = append(reads, read{p, bt})
		}
	}
	want := make([]float64, len(reads))
	for i, r := range reads {
		want[i] = freshFinal(t, r.path, r.t, cfg)
	}
	m := newTrajectories(4 * (trajOverheadBytes + 16*checkpointBytes))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			var scr Scratch
			for _, i := range stats.NewRNG(seed).Perm(len(reads)) {
				got, err := m.Final(reads[i].path, reads[i].t, cfg, &scr)
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("read %d (%g s): memo %v, fresh %v", i, reads[i].t, got, want[i])
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if m.n.evictions.Load() == 0 {
		t.Fatal("the memo never evicted; the test does not exercise eviction under concurrency")
	}
}

// TestTrajectoriesErrorsMatchFresh pins failing runs: with a step budget
// that only the shorter bit times fit, every duration must fail or succeed
// exactly as a fresh run does, with the same ErrSteps message, on every
// repeat (errors are not memoized). A word line of 1e300 V fails with
// ErrNonFinite both ways.
func TestTrajectoriesErrorsMatchFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSteps = 150
	dp := NewDischargePath(device.Generic65(), 0.9, device.Nominal())
	m := newTrajectories(math.MaxInt)
	failed, passed := 0, 0
	for round := 0; round < 2; round++ {
		for _, i := range stats.NewRNG(uint64(round)).Perm(len(paperBitTimes())) {
			bt := paperBitTimes()[i]
			res, wantErr := dp.Discharge(bt, cfg, 0)
			got, err := m.Final(dp, bt, cfg, nil)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%g s: memo error %v, fresh error %v", bt, err, wantErr)
			}
			if wantErr != nil {
				if !errors.Is(err, ErrSteps) {
					t.Fatalf("%g s: %v, want ErrSteps", bt, err)
				}
				failed++
				continue
			}
			if want := res.Waveform.Final()[0]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%g s: memo %v, fresh %v", bt, got, want)
			}
			passed++
		}
	}
	if failed == 0 || passed == 0 {
		t.Fatalf("%d failed and %d passed; the budget must split the bit times", failed, passed)
	}
	// A run that fails after its only sample fails the read: the waveform
	// it would be read from never exists. A budget one step short of the
	// run fails it in the clamped last step, past what the memo integrates
	// with no horizon.
	full, err := dp.Discharge(2.24e-9, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	short := DefaultConfig()
	short.MaxSteps = full.Steps - 1
	_, wantErr := dp.Discharge(2.24e-9, short, 0)
	_, err = newTrajectories(math.MaxInt).Samples(dp, 2.24e-9, []float64{0.16e-9}, short, nil)
	if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("sample of a failing run: memo error %v, fresh error %v", err, wantErr)
	}

	hot := NewDischargePath(device.Generic65(), 1e300, device.Nominal())
	_, wantErr = hot.Discharge(1e-9, DefaultConfig(), 0)
	_, err = m.Final(hot, 1e-9, DefaultConfig(), nil)
	_, samplesErr := m.Samples(hot, 1e-9, []float64{0.5e-9}, DefaultConfig(), nil)
	for _, e := range []error{wantErr, err, samplesErr} {
		if !errors.Is(e, ErrNonFinite) || e.Error() != wantErr.Error() {
			t.Fatalf("VWL 1e300: %v, want the fresh run's %v", e, wantErr)
		}
	}
}

// TestTrajectoriesBypassInitStep pins the bypass: with InitStep 0 the first
// step is a thousandth of the run, so runs of different lengths differ
// from the start and a memo that served them from one trajectory would
// return (and cache) wrong values.
func TestTrajectoriesBypassInitStep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitStep = 0
	dp := NewDischargePath(device.Generic65(), 0.7, device.Nominal())
	m := newTrajectories(math.MaxInt)
	for _, i := range stats.NewRNG(9).Perm(len(paperBitTimes())) {
		bt := paperBitTimes()[i]
		got, err := m.Final(dp, bt, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshFinal(t, dp, bt, cfg); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%g s: memo %v, fresh %v", bt, got, want)
		}
	}
	if n := m.n.integrated.Load(); n != 0 {
		t.Fatalf("InitStep 0 integrated %d trajectories, want the bypass", n)
	}
}
