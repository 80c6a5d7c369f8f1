// Package refdata holds published reference data: the state-of-the-art
// design points of the paper's Fig. 1 and every number the paper reports in
// its evaluation (Table I–III, Fig. 6 RMS errors, headline claims). The
// experiment harness prints these next to measured values so that every
// reproduction artifact is a paper-vs-measured comparison.
package refdata

// DesignPoint is one published in-SRAM multiplier design (Fig. 1).
type DesignPoint struct {
	Ref      string  // citation key as in the paper
	Name     string  // design name
	Venue    string  // publication venue and year
	EnergyPJ float64 // energy per MAC/operation [pJ]
	ClockMHz float64 // operating clock [MHz]
	BitWidth int     // operand bit width [bits]
	Flavor   string  // discharge/charge/time domain
}

// Figure1 returns the state-of-the-art design points compared in the
// paper's Fig. 1 (energy, clock and bit-width potential of in-SRAM
// multiplication designs [8], [14], [15], [16]).
func Figure1() []DesignPoint {
	return []DesignPoint{
		{
			Ref: "[8]", Name: "IMAC", Venue: "TCAS-I 2020",
			EnergyPJ: 1.0, ClockMHz: 125, BitWidth: 4,
			Flavor: "discharge (current domain)",
		},
		{
			Ref: "[14]", Name: "Sanni et al.", Venue: "ISCAS 2018",
			EnergyPJ: 9.1, ClockMHz: 20, BitWidth: 6,
			Flavor: "charge based",
		},
		{
			Ref: "[15]", Name: "AID", Venue: "DATE 2022",
			EnergyPJ: 0.76, ClockMHz: 250, BitWidth: 4,
			Flavor: "discharge with nonlinear DAC",
		},
		{
			Ref: "[16]", Name: "Gong et al.", Venue: "TCAS-II 2020",
			EnergyPJ: 0.735, ClockMHz: 100, BitWidth: 8,
			Flavor: "thermometer time/charge",
		},
	}
}

// PaperRMS holds the paper's Fig. 6 RMS modeling errors.
type PaperRMS struct {
	BaseMV, VDDMV, TempMV, SigmaMV float64 // [mV]
	WriteFJ, DischargeFJ           float64 // [fJ]
}

// Figure6RMS returns the paper's reported model fit errors.
func Figure6RMS() PaperRMS {
	return PaperRMS{
		BaseMV: 0.76, VDDMV: 0.88, TempMV: 0.76, SigmaMV: 0.59,
		WriteFJ: 0.15, DischargeFJ: 0.74,
	}
}

// CornerRow is one row of the paper's Table I.
type CornerRow struct {
	Name      string
	Tau0NS    float64 // [ns]
	VDAC0     float64 // [V]
	VDACFS    float64 // [V]
	EpsMulLSB float64 // ϵ_mul [LSB]
	EMulFJ    float64 // E_mul [fJ]
}

// Table1 returns the paper's selected design corners.
func Table1() []CornerRow {
	return []CornerRow{
		{Name: "fom", Tau0NS: 0.16, VDAC0: 0.3, VDACFS: 1.0, EpsMulLSB: 4.78, EMulFJ: 44},
		{Name: "power", Tau0NS: 0.16, VDAC0: 0.3, VDACFS: 0.7, EpsMulLSB: 15, EMulFJ: 37},
		{Name: "variation", Tau0NS: 0.24, VDAC0: 0.4, VDACFS: 1.0, EpsMulLSB: 9.6, EMulFJ: 69.8},
	}
}

// DNNRow is one row of the paper's Table II (ImageNet) or Table III
// (CIFAR-10). Top5 entries are zero where the paper does not report them.
type DNNRow struct {
	Model         string
	MultsBillions float64 // number of multiplications per inference [×10⁹]
	Float32Top1   float64
	Float32Top5   float64
	Int4Top1      float64
	Int4Top5      float64
	FomTop1       float64
	FomTop5       float64
	PowerTop1     float64
	PowerTop5     float64
	VariationTop1 float64
	VariationTop5 float64
}

// Table2ImageNet returns the paper's ImageNet accuracies.
func Table2ImageNet() []DNNRow {
	return []DNNRow{
		{Model: "VGG16", MultsBillions: 15.61,
			Float32Top1: 70.30, Float32Top5: 90.10, Int4Top1: 69.25, Int4Top5: 89.62,
			FomTop1: 68.97, FomTop5: 89.11, PowerTop1: 64.45, PowerTop5: 81.79,
			VariationTop1: 38.22, VariationTop5: 47.81},
		{Model: "VGG19", MultsBillions: 19.77,
			Float32Top1: 71.30, Float32Top5: 90.00, Int4Top1: 70.09, Int4Top5: 89.78,
			FomTop1: 69.91, FomTop5: 89.24, PowerTop1: 63.34, PowerTop5: 79.61,
			VariationTop1: 36.66, VariationTop5: 48.37},
		{Model: "ResNet50", MultsBillions: 4.14,
			Float32Top1: 74.90, Float32Top5: 92.10, Int4Top1: 73.48, Int4Top5: 91.75,
			FomTop1: 73.39, FomTop5: 91.65, PowerTop1: 61.56, PowerTop5: 80.88,
			VariationTop1: 48.07, VariationTop5: 56.71},
		{Model: "ResNet101", MultsBillions: 7.87,
			Float32Top1: 76.40, Float32Top5: 92.80, Int4Top1: 75.12, Int4Top5: 91.91,
			FomTop1: 74.95, FomTop5: 91.63, PowerTop1: 59.77, PowerTop5: 78.49,
			VariationTop1: 48.45, VariationTop5: 53.19},
	}
}

// Table3CIFAR returns the paper's CIFAR-10 top-1 accuracies.
func Table3CIFAR() []DNNRow {
	return []DNNRow{
		{Model: "VGG16", Float32Top1: 92.24, Int4Top1: 92.04, FomTop1: 91.98, PowerTop1: 87.39, VariationTop1: 68.10},
		{Model: "VGG19", Float32Top1: 92.71, Int4Top1: 92.42, FomTop1: 92.29, PowerTop1: 89.79, VariationTop1: 66.85},
		{Model: "ResNet50", Float32Top1: 93.10, Int4Top1: 92.86, FomTop1: 92.83, PowerTop1: 90.81, VariationTop1: 73.83},
		{Model: "ResNet101", Float32Top1: 93.35, Int4Top1: 93.06, FomTop1: 93.04, PowerTop1: 90.42, VariationTop1: 69.77},
	}
}

// Headline numbers from the abstract and conclusion.
const (
	// SpeedupInputSpace is the reported simulation speed-up for iteration
	// over the input space and design corners versus Cadence Virtuoso.
	SpeedupInputSpace = 101.0
	// SpeedupMonteCarlo is the reported speed-up for mismatch Monte-Carlo
	// sampling.
	SpeedupMonteCarlo = 28.1
	// EnergyPerOpPJ is the average energy per 4-bit operation including
	// write and multiplication [pJ].
	EnergyPerOpPJ = 1.05
	// WorstCaseSigmaMV is the worst-case analog standard deviation [mV].
	WorstCaseSigmaMV = 5.04
)
