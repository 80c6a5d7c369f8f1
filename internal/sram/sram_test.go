package sram

import (
	"testing"

	"optima/internal/device"
	"optima/internal/spice"
	"optima/internal/stats"
)

func TestWriteEnergyIncreasesWithVDD(t *testing.T) {
	tech := device.Generic65()
	low := device.PVT{Corner: device.CornerTT, VDD: 0.9, TempC: 27}
	high := device.PVT{Corner: device.CornerTT, VDD: 1.1, TempC: 27}
	eLow, err := WriteEnergy(tech, spice.DefaultCBL, low, spice.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eHigh, err := WriteEnergy(tech, spice.DefaultCBL, high, spice.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Roughly quadratic: (1.1/0.9)² ≈ 1.49.
	if ratio := eHigh / eLow; ratio < 1.3 || ratio > 1.7 {
		t.Fatalf("write energy VDD ratio = %g, want ≈1.5", ratio)
	}
}

func TestCellMismatchAffectsDischarge(t *testing.T) {
	tech := device.Generic65()
	cond := device.Nominal()
	var cell Cell
	cell.AccessMM = device.Mismatch{DVth: 0.02}
	slow := cell.DischargePath(tech, 0.9, cond)
	var nomCell Cell
	nominal := nomCell.DischargePath(tech, 0.9, cond)
	rSlow, err := slow.Discharge(1e-9, spice.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rNom, err := nominal.Discharge(1e-9, spice.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rSlow.Waveform.Final()[0] <= rNom.Waveform.Final()[0] {
		t.Fatal("higher access Vth must slow the discharge")
	}
}

func TestSampleMismatchPopulatesAllCells(t *testing.T) {
	var w Word
	w.SampleMismatch(device.Generic65(), stats.NewRNG(5))
	var zero int
	for b := range w {
		if w[b].AccessMM == (device.Mismatch{}) || w[b].DriverMM == (device.Mismatch{}) {
			zero++
		}
	}
	if zero != 0 {
		t.Fatalf("%d cells left unmismatched", zero)
	}
}
