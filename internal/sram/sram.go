// Package sram provides the 6T-SRAM substrate for in-memory computing:
// cells and words with per-transistor mismatch state, and the write energy
// of a word.
//
// Discharge-based computing operates the array off-spec: one operand is
// stored in the cells and the other is applied as an analog word-line
// voltage, producing a data-dependent bit-line discharge (paper Section
// II-B). This package owns the cell bookkeeping; the transient physics
// lives in package spice and the fast behavioral models in package core.
package sram

import (
	"fmt"

	"optima/internal/device"
	"optima/internal/spice"
)

// WordBits is the word width of the multiplier case-study array.
const WordBits = 4

// Cell is the local mismatch of one 6T SRAM cell's BLB discharge stack
// (access and pull-down transistors). Mismatch of the remaining four
// transistors affects writes and hold stability but not the compute
// discharge, so it is kept separately at analysis level.
type Cell struct {
	AccessMM device.Mismatch
	DriverMM device.Mismatch
}

// SampleMismatch draws fresh static mismatch for the cell's discharge stack
// with the given technology and geometry.
func (c *Cell) SampleMismatch(tech device.Tech, rng device.Gaussianer) {
	acc := device.NewMOSFET(tech, spice.AccessW, spice.AccessL)
	drv := device.NewMOSFET(tech, spice.PullDownW, spice.PullDownL)
	c.AccessMM = acc.SampleMismatch(rng)
	c.DriverMM = drv.SampleMismatch(rng)
}

// DischargePath builds the golden-simulation discharge stack for this cell
// at the given word-line voltage and condition, applying the cell's
// mismatch state.
func (c *Cell) DischargePath(tech device.Tech, vwl float64, cond device.PVT) *spice.DischargePath {
	dp := spice.NewDischargePath(tech, vwl, cond)
	dp.Access.MM = c.AccessMM
	dp.Driver.MM = c.DriverMM
	return dp
}

// Word is a little-endian group of WordBits cells: cell i holds bit i of
// the stored operand and backs bit line i.
type Word [WordBits]Cell

// SampleMismatch draws fresh static mismatch for every cell of the word
// (cell order is fixed, so a seeded rng reproduces the same word state).
func (w *Word) SampleMismatch(tech device.Tech, rng device.Gaussianer) {
	for i := range w {
		w[i].SampleMismatch(tech, rng)
	}
}

// CellFlipEnergy runs the golden write transient of a single cell and
// returns the supply energy of the flip (short-circuit plus restoring
// charge). This is the temperature-sensitive component of the write energy
// that the paper's Eq. 7 models with its p1(T) factor.
func CellFlipEnergy(tech device.Tech, cond device.PVT, cfg spice.Config) (float64, error) {
	cw := spice.NewSRAMCellWrite(tech, 0, cond.VDD, cond)
	ok, res, err := cw.Write(false, 300e-12, cfg)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("sram: cell write did not complete at %v", cond)
	}
	// Both internal nodes also swing by VDD, drawing C_Q·VDD from supply.
	return res.SupplyEnergy + 2*spice.DefaultCQ*cond.VDD*cond.VDD, nil
}

// WriteEnergy returns the total modeled write energy for one word at the
// given condition (bit-line swings plus cell flips).
func WriteEnergy(tech device.Tech, cbl float64, cond device.PVT, cfg spice.Config) (float64, error) {
	flip, err := CellFlipEnergy(tech, cond, cfg)
	if err != nil {
		return 0, err
	}
	return float64(WordBits) * (cbl*cond.VDD*cond.VDD + flip), nil
}
