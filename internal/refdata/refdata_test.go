package refdata

import "testing"

func TestFigure1Complete(t *testing.T) {
	pts := Figure1()
	if len(pts) != 4 {
		t.Fatalf("Fig. 1 has %d designs, want 4 ([8],[14],[15],[16])", len(pts))
	}
	refs := map[string]bool{}
	for _, p := range pts {
		if p.EnergyPJ <= 0 || p.ClockMHz <= 0 || p.BitWidth <= 0 {
			t.Fatalf("design %s has non-positive metrics", p.Name)
		}
		if refs[p.Ref] {
			t.Fatalf("duplicate reference %s", p.Ref)
		}
		refs[p.Ref] = true
	}
	for _, want := range []string{"[8]", "[14]", "[15]", "[16]"} {
		if !refs[want] {
			t.Fatalf("missing reference %s", want)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("Table I has %d corners", len(rows))
	}
	fom := rows[0]
	if fom.Name != "fom" || fom.Tau0NS != 0.16 || fom.VDAC0 != 0.3 || fom.VDACFS != 1.0 {
		t.Fatalf("fom corner mismatch: %+v", fom)
	}
	if fom.EpsMulLSB != 4.78 || fom.EMulFJ != 44 {
		t.Fatalf("fom metrics mismatch: %+v", fom)
	}
	// The power corner must have the smallest reported energy.
	for _, r := range rows {
		if r.EMulFJ < rows[1].EMulFJ {
			t.Fatalf("power corner is not minimal energy")
		}
	}
}

func TestTable2Ordering(t *testing.T) {
	for _, r := range Table2ImageNet() {
		if !(r.Float32Top1 >= r.Int4Top1 && r.Int4Top1 >= r.FomTop1 &&
			r.FomTop1 > r.PowerTop1 && r.PowerTop1 > r.VariationTop1) {
			t.Fatalf("%s violates the paper's accuracy ordering: %+v", r.Model, r)
		}
		if r.MultsBillions <= 0 {
			t.Fatalf("%s lacks multiplication count", r.Model)
		}
	}
}

func TestTable3Ordering(t *testing.T) {
	for _, r := range Table3CIFAR() {
		if !(r.Float32Top1 >= r.Int4Top1 && r.Int4Top1 >= r.FomTop1 &&
			r.FomTop1 > r.PowerTop1 && r.PowerTop1 > r.VariationTop1) {
			t.Fatalf("%s violates the paper's accuracy ordering: %+v", r.Model, r)
		}
	}
}

func TestHeadlines(t *testing.T) {
	if SpeedupInputSpace != 101.0 || SpeedupMonteCarlo != 28.1 {
		t.Fatal("speed-up headlines wrong")
	}
	if EnergyPerOpPJ != 1.05 {
		t.Fatal("energy headline wrong")
	}
	// The abstract's headline RMS modeling error is the Fig. 6 supply-model
	// RMS, 0.88 mV.
	if Figure6RMS().VDDMV != 0.88 {
		t.Fatal("headline RMS must equal the Fig. 6 supply-model RMS")
	}
}
