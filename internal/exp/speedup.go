package exp

import (
	"fmt"
	"time"

	"optima/internal/device"
	"optima/internal/mult"
	"optima/internal/refdata"
	"optima/internal/report"
	"optima/internal/spice"
	"optima/internal/sram"
	"optima/internal/stats"
)

// SpeedupResult compares OPTIMA's evaluation with behavioral models against
// golden circuit simulation on the same workload.
type SpeedupResult struct {
	Name           string
	BehavioralTime time.Duration
	GoldenTime     time.Duration
	Operations     int
	// GoldenTransients counts the circuit simulations the golden backend ran.
	GoldenTransients int
}

// Speedup is the measured ratio.
func (s SpeedupResult) Speedup() float64 {
	if s.BehavioralTime <= 0 {
		return 0
	}
	return float64(s.GoldenTime) / float64(s.BehavioralTime)
}

// SpeedupInputSpace measures the paper's headline experiment: iterating the
// full 16×16 input space of one multiplier configuration with the
// behavioral backend versus the golden backend (paper: 101×).
func (c *Context) SpeedupInputSpace(cfg mult.Config) (SpeedupResult, error) {
	out := SpeedupResult{Name: "input-space iteration"}
	cond := device.Nominal()

	b, err := mult.NewBehavioral(c.Model, cfg, cond)
	if err != nil {
		return out, err
	}
	//lint:ignore determinism the speed-up experiment measures wall-clock time; the timing is the result, and it never enters a cache key or persisted record
	start := time.Now()
	for a := uint(0); a <= mult.OperandMax; a++ {
		for d := uint(0); d <= mult.OperandMax; d++ {
			if _, err := b.Multiply(a, d, nil); err != nil {
				return out, err
			}
			out.Operations++
		}
	}
	out.BehavioralTime = time.Since(start)

	g, err := mult.NewGolden(c.Tech, cfg, cond, c.Spice)
	if err != nil {
		return out, err
	}
	var scr spice.Scratch
	//lint:ignore determinism the speed-up experiment measures wall-clock time; the timing is the result, and it never enters a cache key or persisted record
	start = time.Now()
	for a := uint(0); a <= mult.OperandMax; a++ {
		for d := uint(0); d <= mult.OperandMax; d++ {
			r, err := g.MultiplyCells(a, d, nil, &scr)
			if err != nil {
				return out, err
			}
			out.GoldenTransients += r.Transients
		}
	}
	out.GoldenTime = time.Since(start)
	return out, nil
}

// SpeedupMonteCarlo measures the mismatch Monte-Carlo experiment: sampling
// the multiplier result distribution at one input pair (paper: 28.1×).
func (c *Context) SpeedupMonteCarlo(cfg mult.Config, samples int) (SpeedupResult, error) {
	out := SpeedupResult{Name: "mismatch Monte Carlo"}
	cond := device.Nominal()
	const a, d = 11, 13

	b, err := mult.NewBehavioral(c.Model, cfg, cond)
	if err != nil {
		return out, err
	}
	rng := stats.NewRNG(0x5eed)
	//lint:ignore determinism the speed-up experiment measures wall-clock time; the timing is the result, and it never enters a cache key or persisted record
	start := time.Now()
	for s := 0; s < samples; s++ {
		if _, err := b.Multiply(a, d, rng); err != nil {
			return out, err
		}
		out.Operations++
	}
	out.BehavioralTime = time.Since(start)

	g, err := mult.NewGolden(c.Tech, cfg, cond, c.Spice)
	if err != nil {
		return out, err
	}
	grng := stats.NewRNG(0x5eed)
	var cells sram.Word
	var scr spice.Scratch
	//lint:ignore determinism the speed-up experiment measures wall-clock time; the timing is the result, and it never enters a cache key or persisted record
	start = time.Now()
	for s := 0; s < samples; s++ {
		cells.SampleMismatch(c.Tech, grng)
		r, err := g.MultiplyCells(a, d, &cells, &scr)
		if err != nil {
			return out, err
		}
		out.GoldenTransients += r.Transients
	}
	out.GoldenTime = time.Since(start)
	return out, nil
}

// SpeedupTable renders both speed-up experiments against the paper's
// headline numbers.
func SpeedupTable(inputSpace, monteCarlo SpeedupResult) *report.Table {
	t := report.NewTable("Simulation speed-up: OPTIMA (behavioral models) vs golden circuit simulation",
		"experiment", "behavioral", "golden", "golden transients", "speed-up", "paper")
	t.AddRow(inputSpace.Name,
		inputSpace.BehavioralTime.String(), inputSpace.GoldenTime.String(),
		inputSpace.GoldenTransients,
		fmt.Sprintf("%.1f×", inputSpace.Speedup()),
		fmt.Sprintf("%.0f×", refdata.SpeedupInputSpace))
	t.AddRow(monteCarlo.Name,
		monteCarlo.BehavioralTime.String(), monteCarlo.GoldenTime.String(),
		monteCarlo.GoldenTransients,
		fmt.Sprintf("%.1f×", monteCarlo.Speedup()),
		fmt.Sprintf("%.1f×", refdata.SpeedupMonteCarlo))
	return t
}
