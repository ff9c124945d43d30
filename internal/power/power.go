// Package power centralizes the technology coefficients linking
// instruction-level activity to register-file power: per-access dynamic
// energy, cycle time, and temperature-dependent leakage. The paper's §4
// describes the analysis as relating "the technology coefficients of
// logic activity and peak power found in the thermal models [1, 5] ...
// in an analytical way to the high-level information of instruction
// execution and variables assignment"; Tech is that set of
// coefficients.
package power

import (
	"fmt"
	"math"
)

// Tech bundles the technology and package parameters of the modelled
// register file. All quantities are SI.
type Tech struct {
	// Name labels the parameter set in reports.
	Name string

	// EnergyRead and EnergyWrite are the dynamic energies of one read
	// or write access to one register, in joules.
	EnergyRead, EnergyWrite float64
	// CycleTime is the processor cycle time in seconds.
	CycleTime float64

	// LeakBase is the leakage power of one cell at temperature T0, in
	// watts. LeakBeta is the exponential temperature coefficient in
	// 1/K: P_leak(T) = LeakBase · exp(LeakBeta · (T − T0)).
	LeakBase, LeakBeta float64
	// T0 is the leakage reference temperature in kelvin.
	T0 float64

	// TAmbient is the heat-sink/ambient temperature in kelvin.
	TAmbient float64

	// CellEdge is the register cell edge in metres; Thickness the
	// effective silicon thickness contributing heat capacity.
	CellEdge, Thickness float64
	// VolHeatCap is the volumetric heat capacity of silicon in
	// J/(m³·K); Conductivity its thermal conductivity in W/(m·K).
	VolHeatCap, Conductivity float64
	// PackageR is the junction-to-ambient thermal resistance of the
	// whole die in K/W; DieArea the die area in m² used to scale it to
	// one cell.
	PackageR, DieArea float64
}

// Default65nm returns the parameter set used throughout the
// experiments, representative of a 65 nm-class embedded register file
// at 1 GHz.
//
// Calibration note: two values are *effective* rather than
// bulk-physical. Conductivity is the effective lateral
// conductivity at register-cell granularity (bulk silicon's 110 W/mK
// would give a thermal spreading length of ~20 cells, flattening the
// whole file; the RF gradients reported by the papers this work builds
// on [2,3] imply a spreading length near one cell, i.e. an effective
// lateral coupling dominated by the thin active layer and interconnect
// stack). EnergyRead/Write include the per-access wordline/decoder
// overhead of a multi-ported file, not just the bit cells. With these
// defaults a register accessed every cycle sustains ≈60 K above
// ambient in isolation, and the lateral/vertical conductance ratio
// gives a spreading length of ≈1.1 cells — matching the hot-spot
// magnitudes and steep intra-RF gradients of the motivating work.
func Default65nm() Tech {
	return Tech{
		Name:         "65nm-1GHz",
		EnergyRead:   3.0e-12, // 3 pJ incl. port/decoder overhead
		EnergyWrite:  4.0e-12, // 4 pJ
		CycleTime:    1e-9,    // 1 GHz
		LeakBase:     20e-6,   // 20 µW per cell at T0
		LeakBeta:     0.025,   // ~2× leakage per +28 K
		T0:           318.15,  // 45 °C
		TAmbient:     318.15,  // 45 °C heat-sink reference
		CellEdge:     50e-6,   // 50 µm
		Thickness:    100e-6,  // 100 µm effective
		VolHeatCap:   1.75e6,  // J/(m³K)
		Conductivity: 0.6,     // effective lateral W/(mK); see note
		PackageR:     0.5,     // K/W die-level junction-to-ambient
		DieArea:      1e-4,    // 1 cm²
	}
}

// Validate reports the first physically meaningless parameter, or nil.
// Fields are checked in declaration order, so a Tech with several bad
// fields always names the same one.
func (t Tech) Validate() error {
	pos := [...]struct {
		name string
		v    float64
	}{
		{"EnergyRead", t.EnergyRead},
		{"EnergyWrite", t.EnergyWrite},
		{"CycleTime", t.CycleTime},
		{"T0", t.T0},
		{"TAmbient", t.TAmbient},
		{"CellEdge", t.CellEdge},
		{"Thickness", t.Thickness},
		{"VolHeatCap", t.VolHeatCap},
		{"Conductivity", t.Conductivity},
		{"PackageR", t.PackageR},
		{"DieArea", t.DieArea},
	}
	for _, f := range pos {
		if f.v <= 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("power: %s must be positive, got %g", f.name, f.v)
		}
	}
	if t.LeakBase < 0 || t.LeakBeta < 0 {
		return fmt.Errorf("power: leakage parameters must be non-negative")
	}
	return nil
}

// WithCellEdge returns a copy of the parameter set rescaled to a
// different thermal-cell edge: heat capacity and vertical conductance
// follow automatically from the area, and per-cell leakage is scaled by
// the area ratio so total leakage is preserved. Used when the analysis
// runs on a coarsened floorplan.
func (t Tech) WithCellEdge(edge float64) Tech {
	out := t
	ratio := (edge * edge) / (t.CellEdge * t.CellEdge)
	out.CellEdge = edge
	out.LeakBase = t.LeakBase * ratio
	return out
}

// AccessEnergy returns the dynamic energy of one register access.
func (t Tech) AccessEnergy(write bool) float64 {
	if write {
		return t.EnergyWrite
	}
	return t.EnergyRead
}

// Leakage returns the leakage power of one cell at temperature T:
// LeakBase · exp(LeakBeta · (T − T0)).
func (t Tech) Leakage(T float64) float64 {
	return t.LeakBase * math.Exp(t.LeakBeta*(T-t.T0))
}

// CellArea returns the area of one register cell in m².
func (t Tech) CellArea() float64 { return t.CellEdge * t.CellEdge }

// CellHeatCap returns the heat capacity of one cell in J/K.
func (t Tech) CellHeatCap() float64 {
	return t.VolHeatCap * t.CellArea() * t.Thickness
}

// LateralG returns the thermal conductance between two adjacent cells
// in W/K: k·A/L with A = edge·thickness and L = edge.
func (t Tech) LateralG() float64 {
	return t.Conductivity * t.Thickness
}

// VerticalG returns the thermal conductance from one cell to the
// ambient in W/K: the package resistance scaled by cell/die area ratio.
func (t Tech) VerticalG() float64 {
	rCell := t.PackageR * t.DieArea / t.CellArea()
	return 1 / rCell
}

// AccessPower returns the average power of one access sustained over
// one cycle, in watts.
func (t Tech) AccessPower(write bool) float64 {
	return t.AccessEnergy(write) / t.CycleTime
}

// PowerDensity converts a per-cell power (W) into areal power density
// (W/m²) for reporting.
func (t Tech) PowerDensity(p float64) float64 { return p / t.CellArea() }
