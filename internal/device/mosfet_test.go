package device

import (
	"math"
	"testing"
	"testing/quick"

	"optima/internal/stats"
)

func testDevice() *MOSFET {
	return NewMOSFET(Generic65(), 0.18e-6, 0.065e-6)
}

func TestIdsOffBelowThreshold(t *testing.T) {
	m := testDevice()
	cond := Nominal()
	iOff := m.Ids(0, 1.0, 0, cond)
	iOn := m.Ids(1.0, 1.0, 0, cond)
	if iOff <= 0 {
		t.Fatalf("off current %g must be positive (subthreshold leakage)", iOff)
	}
	if iOn/iOff < 1e4 {
		t.Fatalf("on/off ratio %g too small", iOn/iOff)
	}
}

func TestIdsMonotonicInGate(t *testing.T) {
	m := testDevice()
	cond := Nominal()
	prev := -1.0
	for vg := 0.0; vg <= 1.2; vg += 0.02 {
		i := m.Ids(vg, 1.0, 0, cond)
		if i < prev {
			t.Fatalf("Ids not monotonic in Vg at %g", vg)
		}
		prev = i
	}
}

func TestIdsMonotonicInDrain(t *testing.T) {
	m := testDevice()
	cond := Nominal()
	prev := 0.0
	for vd := 0.0; vd <= 1.0; vd += 0.02 {
		i := m.Ids(0.8, vd, 0, cond)
		if i < prev-1e-15 {
			t.Fatalf("Ids not monotonic in Vd at %g: %g < %g", vd, i, prev)
		}
		prev = i
	}
}

func TestIdsZeroAtZeroVds(t *testing.T) {
	m := testDevice()
	if i := m.Ids(0.8, 0, 0, Nominal()); i != 0 {
		t.Fatalf("Ids at Vds=0 is %g, want 0", i)
	}
}

func TestIdsAntisymmetric(t *testing.T) {
	// Swapping source and drain must flip the current sign (symmetric device).
	m := testDevice()
	cond := Nominal()
	fwd := m.Ids(0.9, 0.7, 0.2, cond)
	rev := m.Ids(0.9, 0.2, 0.7, cond)
	if math.Abs(fwd+rev) > 1e-18 {
		t.Fatalf("fwd %g, rev %g: not antisymmetric", fwd, rev)
	}
}

func TestSubthresholdSlope(t *testing.T) {
	// In weak inversion the current decade per gate volt is set by n·Vt·ln10.
	m := testDevice()
	cond := Nominal()
	vth := m.Vth(cond)
	i1 := m.Ids(vth-0.15, 1.0, 0, cond)
	i2 := m.Ids(vth-0.25, 1.0, 0, cond)
	decades := math.Log10(i1 / i2)
	slope := 100.0 / decades // mV/decade
	want := m.Tech.N * cond.Vt() * math.Ln10 * 1e3
	if math.Abs(slope-want) > 0.25*want {
		t.Fatalf("subthreshold slope %.1f mV/dec, want ≈%.1f", slope, want)
	}
}

func TestVelocitySaturationLimitsVdsat(t *testing.T) {
	m := testDevice()
	cond := Nominal()
	// The pass transistor leaves saturation when the bit line discharges
	// below Vs + Vdsat, the velocity-saturated refinement of Eq. 2.
	_, vdsat := m.Resolve(cond).overdrive(1.0, 0)
	vov := 1.0 - m.Vth(cond)
	if vdsat >= vov {
		t.Fatalf("Vdsat %g not reduced below Vov %g by velocity saturation", vdsat, vov)
	}
	if vdsat < 0.05 {
		t.Fatalf("Vdsat %g implausibly small", vdsat)
	}
}

func TestNearLinearCurrentAtHighOverdrive(t *testing.T) {
	// Deep velocity saturation: I(Vov) closer to linear than quadratic.
	m := testDevice()
	cond := Nominal()
	vth := m.Tech.Vth0
	i1 := m.Ids(vth+0.3, 1.0, 0, cond)
	i2 := m.Ids(vth+0.6, 1.0, 0, cond)
	ratio := i2 / i1
	if ratio > 2.8 { // quadratic would give 4
		t.Fatalf("I(2·Vov)/I(Vov) = %g: too quadratic for a velocity-saturated device", ratio)
	}
	if ratio < 1.5 {
		t.Fatalf("I(2·Vov)/I(Vov) = %g: sublinear", ratio)
	}
}

func TestTemperatureReducesStrongInversionCurrent(t *testing.T) {
	m := testDevice()
	hot := PVT{Corner: CornerTT, VDD: 1.0, TempC: 85}
	cold := PVT{Corner: CornerTT, VDD: 1.0, TempC: 0}
	iHot := m.Ids(1.0, 1.0, 0, hot)
	iCold := m.Ids(1.0, 1.0, 0, cold)
	// At high overdrive, mobility degradation wins over Vth reduction.
	if iHot >= iCold {
		t.Fatalf("strong-inversion current should drop with temperature: hot %g, cold %g", iHot, iCold)
	}
}

func TestTemperatureIncreasesSubthresholdCurrent(t *testing.T) {
	m := testDevice()
	hot := PVT{Corner: CornerTT, VDD: 1.0, TempC: 85}
	cold := PVT{Corner: CornerTT, VDD: 1.0, TempC: 0}
	vg := m.Tech.Vth0 - 0.1
	if m.Ids(vg, 1.0, 0, hot) <= m.Ids(vg, 1.0, 0, cold) {
		t.Fatal("subthreshold current should rise with temperature (Vth drop)")
	}
}

func TestCornersOrdering(t *testing.T) {
	m := testDevice()
	iFF := m.Ids(0.8, 1.0, 0, PVT{Corner: CornerFF, VDD: 1.0, TempC: 27})
	iTT := m.Ids(0.8, 1.0, 0, Nominal())
	iSS := m.Ids(0.8, 1.0, 0, PVT{Corner: CornerSS, VDD: 1.0, TempC: 27})
	if !(iFF > iTT && iTT > iSS) {
		t.Fatalf("corner ordering violated: FF %g, TT %g, SS %g", iFF, iTT, iSS)
	}
}

func TestCornerStrings(t *testing.T) {
	if CornerTT.String() != "TT" || CornerFF.String() != "FF" || CornerSS.String() != "SS" {
		t.Fatal("corner names wrong")
	}
	if ProcessCorner(99).String() == "" {
		t.Fatal("unknown corner must still format")
	}
	if len(Corners()) != 3 {
		t.Fatal("want 3 corners")
	}
}

func TestPelgromScaling(t *testing.T) {
	tech := Generic65()
	small := NewMOSFET(tech, 0.1e-6, 0.065e-6)
	big := NewMOSFET(tech, 0.4e-6, 0.065e-6)
	if small.SigmaVth() <= big.SigmaVth() {
		t.Fatal("smaller device must have larger Vth mismatch")
	}
	ratio := small.SigmaVth() / big.SigmaVth()
	if math.Abs(ratio-2) > 1e-9 {
		t.Fatalf("σ ratio = %g, want 2 for 4× area ratio", ratio)
	}
}

func TestSampleMismatchStatistics(t *testing.T) {
	m := testDevice()
	rng := stats.NewRNG(99)
	var vthAcc, betaAcc stats.Accumulator
	for i := 0; i < 20000; i++ {
		mm := m.SampleMismatch(rng)
		vthAcc.Add(mm.DVth)
		betaAcc.Add(mm.DBeta)
	}
	if math.Abs(vthAcc.Mean()) > 3e-4 {
		t.Fatalf("mismatch Vth mean %g not ≈0", vthAcc.Mean())
	}
	if math.Abs(vthAcc.StdDev()-m.SigmaVth()) > 0.05*m.SigmaVth() {
		t.Fatalf("mismatch Vth std %g, want %g", vthAcc.StdDev(), m.SigmaVth())
	}
	if math.Abs(betaAcc.StdDev()-m.SigmaBeta()) > 0.05*m.SigmaBeta() {
		t.Fatalf("mismatch beta std %g, want %g", betaAcc.StdDev(), m.SigmaBeta())
	}
}

func TestMismatchShiftsCurrent(t *testing.T) {
	m := testDevice()
	cond := Nominal()
	nominal := m.Ids(0.8, 1.0, 0, cond)
	m.MM = Mismatch{DVth: 0.01}
	if m.Ids(0.8, 1.0, 0, cond) >= nominal {
		t.Fatal("higher Vth must reduce current")
	}
	m.MM = Mismatch{DBeta: 0.05}
	if got := m.Ids(0.8, 1.0, 0, cond); math.Abs(got/nominal-1.05) > 1e-3 {
		t.Fatalf("+5%% beta gave ratio %g", got/nominal)
	}
}

func TestGmPositive(t *testing.T) {
	m := testDevice()
	const h = 1e-6
	if gm := (m.Ids(0.8+h, 1.0, 0, Nominal()) - m.Ids(0.8-h, 1.0, 0, Nominal())) / (2 * h); gm <= 0 {
		t.Fatalf("gm = %g, want positive", gm)
	}
}

func TestPVTHelpers(t *testing.T) {
	p := Nominal()
	if math.Abs(p.TempK()-300.15) > 1e-9 {
		t.Fatalf("TempK = %g", p.TempK())
	}
	if math.Abs(p.Vt()-0.02586) > 1e-4 {
		t.Fatalf("Vt = %g", p.Vt())
	}
	if p.String() == "" {
		t.Fatal("empty PVT string")
	}
}

func TestPMOSConductsWhenGateLow(t *testing.T) {
	p := NewPMOS(Generic65(), 0.1e-6, 0.065e-6)
	cond := Nominal()
	iOn := p.Isd(0, 0.5, 1.0, cond)    // gate low → conducting
	iOff := p.Isd(1.0, 0.5, 1.0, cond) // gate high → off
	if iOn <= 0 {
		t.Fatalf("PMOS on current %g, want positive", iOn)
	}
	if iOn/iOff < 1e3 {
		t.Fatalf("PMOS on/off ratio %g too small", iOn/iOff)
	}
}

func TestPMOSWeakerThanNMOS(t *testing.T) {
	tech := Generic65()
	n := NewMOSFET(tech, 0.1e-6, 0.065e-6)
	p := NewPMOS(tech, 0.1e-6, 0.065e-6)
	cond := Nominal()
	iN := n.Ids(1.0, 0.5, 0, cond)
	iP := p.Isd(0, 0.5, 1.0, cond)
	if iP >= iN {
		t.Fatalf("PMOS %g should be weaker than same-size NMOS %g", iP, iN)
	}
}

// Property: current is always finite and non-negative for vd ≥ vs over the
// operating box.
func TestIdsFiniteProperty(t *testing.T) {
	m := testDevice()
	f := func(g, d, s uint8) bool {
		vg := float64(g) / 255 * 1.2
		vs := float64(s) / 255 * 1.2
		vd := vs + float64(d)/255*(1.2-vs)
		for _, corner := range Corners() {
			cond := PVT{Corner: corner, VDD: 1.0, TempC: 27}
			i := m.Ids(vg, vd, vs, cond)
			if math.IsNaN(i) || math.IsInf(i, 0) || i < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refIds is the drain-current expression as it read before device terms
// were resolved once per condition: β, Vth and Vt recomputed on every call.
// TestResolvedIdsMatchesReference holds Resolved.Ids to it bit for bit.
func refIds(m *MOSFET, vg, vd, vs float64, p PVT) float64 {
	if vd < vs {
		return -refIds(m, vg, vs, vd, p)
	}
	vt := p.Vt()
	n := m.Tech.N
	beta := m.Beta(p)
	vth := m.Vth(p)
	vc := m.Tech.VCrit
	u := (vg - vs - vth) / (2 * n * vt)
	var vov float64
	if u > 40 {
		vov = 2 * n * vt * u
	} else {
		vov = 2 * n * vt * math.Log1p(math.Exp(u))
	}
	vdsat := vc * (math.Sqrt(1+2*vov/vc) - 1)
	vds := vd - vs
	if vds < vdsat {
		return beta * (vov*vds - 0.5*vds*vds) / (1 + vds/vc)
	}
	isat := beta * (vov*vdsat - 0.5*vdsat*vdsat) / (1 + vdsat/vc)
	return isat * (1 + m.Tech.Lambda*(vds-vdsat))
}

// TestResolvedIdsMatchesReference pins the resolved-terms kernel: over a
// seeded grid of terminal voltages (reversed drain/source and the u > 40
// strong-overdrive branch included), every corner, several temperatures and
// sampled mismatch, both MOSFET.Ids and a once-resolved device return the
// reference expression's current to the last bit.
func TestResolvedIdsMatchesReference(t *testing.T) {
	rng := stats.NewRNG(0x1d5)
	var reversed, strong int
	for _, corner := range Corners() {
		for _, tempC := range []float64{-40, 0, 27, 60, 125} {
			p := PVT{Corner: corner, VDD: 0.9 + 0.1*float64(corner), TempC: tempC}
			for dev := 0; dev < 8; dev++ {
				m := testDevice()
				if dev > 0 {
					m.MM = m.SampleMismatch(rng)
				}
				r := m.Resolve(p)
				for k := 0; k < 200; k++ {
					vg := rng.Uniform(-0.2, 1.4)
					vd := rng.Uniform(-0.1, 1.2)
					vs := rng.Uniform(-0.1, 1.2)
					if k%10 == 0 {
						vg = rng.Uniform(3, 10) // u > 40: the linear overdrive branch
					}
					if vd < vs {
						reversed++
					}
					if (vg-math.Min(vd, vs)-m.Vth(p))/(2*m.Tech.N*p.Vt()) > 40 {
						strong++
					}
					want := math.Float64bits(refIds(m, vg, vd, vs, p))
					if got := math.Float64bits(m.Ids(vg, vd, vs, p)); got != want {
						t.Fatalf("MOSFET.Ids(%g, %g, %g) at %v, mismatch %+v: bits %x, reference %x",
							vg, vd, vs, p, m.MM, got, want)
					}
					if got := math.Float64bits(r.Ids(vg, vd, vs)); got != want {
						t.Fatalf("Resolved.Ids(%g, %g, %g) at %v, mismatch %+v: bits %x, reference %x",
							vg, vd, vs, p, m.MM, got, want)
					}
				}
			}
		}
	}
	if reversed == 0 || strong == 0 {
		t.Fatalf("grid missed a branch: %d reversed, %d with u > 40", reversed, strong)
	}
}
