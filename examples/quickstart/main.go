// Quickstart: calibrate the OPTIMA behavioral models against the golden
// transistor-level simulator, then run one in-SRAM multiplication and print
// the analog trace — the shortest possible tour of the framework.
package main

import (
	"fmt"
	"log"
	"time"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/mult"
	"optima/internal/stats"
)

func main() {
	// 1. Calibrate: golden sweeps + least-squares fits (Eq. 3–8).
	// QuickCalibration keeps this under a second; DefaultCalibration is the
	// full recipe used for the paper artifacts.
	start := time.Now()
	model, err := core.Calibrate(core.QuickCalibration())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated in %v\n", time.Since(start))
	fmt.Printf("fit report: %v\n\n", model.Report)

	// 2. Build a multiplier at the paper's fom corner:
	// τ0 = 0.16 ns, V_DAC,0 = 0.3 V, V_DAC,FS = 1.0 V.
	cfg := mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}
	m, err := mult.NewBehavioral(model, cfg, device.Nominal())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multiplier at %v\n", cfg)
	fmt.Printf("ADC trim: LSB = %.3f mV\n\n", m.LSBVolt*1e3)

	// 3. Multiply 11 × 13 deterministically and with mismatch sampling.
	a, d := uint(11), uint(13)
	det, err := m.Multiply(a, d, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deterministic: %d × %d → code %d (expected %d, error %+d LSB)\n",
		a, d, det.Code, det.Expected, det.ErrorLSB())
	fmt.Printf("  combined discharge %.2f mV, energy %.1f fJ\n",
		det.VComb*1e3, det.Energy*1e15)
	for i, dv := range det.DeltaV {
		fmt.Printf("  bit line %d (t = %v ps): ΔV = %6.2f mV\n",
			i, cfg.BitTime(i)*1e12, dv*1e3)
	}

	rng := stats.NewRNG(42)
	fmt.Println("\nwith per-operation mismatch (paper's Monte-Carlo procedure):")
	for s := 0; s < 5; s++ {
		r, err := m.Multiply(a, d, rng)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  sample %d: code %d (error %+d LSB)\n", s, r.Code, r.ErrorLSB())
	}

	// 4. The full-operation energy budget (the paper's 1.05 pJ claim).
	fmt.Printf("\nword write: %.2f pJ, multiplication: %.1f fJ → %.2f pJ per op\n",
		m.WriteEnergy()*1e12, det.Energy*1e15,
		(m.WriteEnergy()+det.Energy)*1e12)
}
