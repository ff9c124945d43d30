package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefault65nmValid(t *testing.T) {
	tech := Default65nm()
	if err := tech.Validate(); err != nil {
		t.Fatalf("default tech invalid: %v", err)
	}
	if tech.Name == "" {
		t.Error("default tech unnamed")
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	mutations := []func(*Tech){
		func(c *Tech) { c.EnergyRead = 0 },
		func(c *Tech) { c.EnergyWrite = -1 },
		func(c *Tech) { c.CycleTime = 0 },
		func(c *Tech) { c.CellEdge = math.NaN() },
		func(c *Tech) { c.Thickness = math.Inf(1) },
		func(c *Tech) { c.VolHeatCap = 0 },
		func(c *Tech) { c.Conductivity = -5 },
		func(c *Tech) { c.PackageR = 0 },
		func(c *Tech) { c.DieArea = 0 },
		func(c *Tech) { c.LeakBase = -1 },
		func(c *Tech) { c.LeakBeta = -0.1 },
		func(c *Tech) { c.T0 = 0 },
		func(c *Tech) { c.TAmbient = -3 },
	}
	for i, mut := range mutations {
		tech := Default65nm()
		mut(&tech)
		if err := tech.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

// A Tech with two bad fields names the first one in declaration order,
// the same one on every call.
func TestValidateNamesFirstBadFieldEveryCall(t *testing.T) {
	tech := Default65nm()
	tech.Conductivity = 0
	tech.EnergyWrite = -1
	const want = "power: EnergyWrite must be positive, got -1"
	for i := 0; i < 100; i++ {
		err := tech.Validate()
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate() = %v, want %q", i, err, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = Default65nm().Validate() }); n != 0 {
		t.Errorf("Validate of a valid Tech allocates %v times, want 0", n)
	}
}

func TestAccessEnergy(t *testing.T) {
	tech := Default65nm()
	if tech.AccessEnergy(false) != tech.EnergyRead {
		t.Error("read energy wrong")
	}
	if tech.AccessEnergy(true) != tech.EnergyWrite {
		t.Error("write energy wrong")
	}
	if tech.EnergyWrite <= tech.EnergyRead {
		t.Error("writes should cost more than reads")
	}
}

func TestLeakageMonotone(t *testing.T) {
	tech := Default65nm()
	if got := tech.Leakage(tech.T0); math.Abs(got-tech.LeakBase) > 1e-12 {
		t.Errorf("Leakage(T0) = %g, want LeakBase %g", got, tech.LeakBase)
	}
	// Property: leakage increases with temperature.
	f := func(dt1, dt2 float64) bool {
		d1 := math.Mod(math.Abs(dt1), 100)
		d2 := math.Mod(math.Abs(dt2), 100)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return tech.Leakage(tech.T0+d1) <= tech.Leakage(tech.T0+d2)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Doubling check: +28 K ≈ 2×.
	ratio := tech.Leakage(tech.T0+28) / tech.Leakage(tech.T0)
	if ratio < 1.8 || ratio > 2.3 {
		t.Errorf("leakage +28K ratio = %g, want ~2", ratio)
	}
}

func TestDerivedRCValues(t *testing.T) {
	tech := Default65nm()
	// Heat capacity: 1.75e6 · 2.5e-9 · 1e-4 = 4.375e-7 J/K.
	if c := tech.CellHeatCap(); math.Abs(c-4.375e-7) > 1e-12 {
		t.Errorf("CellHeatCap = %g, want 4.375e-7", c)
	}
	// Lateral conductance: 0.6 · 1e-4 = 6e-5 W/K.
	if g := tech.LateralG(); math.Abs(g-6e-5) > 1e-12 {
		t.Errorf("LateralG = %g, want 6e-5", g)
	}
	// Vertical conductance: cell R = 0.5 · 1e-4/2.5e-9 = 2e4 K/W.
	if g := tech.VerticalG(); math.Abs(g-5e-5) > 1e-12 {
		t.Errorf("VerticalG = %g, want 5e-5", g)
	}
	// Access power: 3 pJ / 1 ns = 3 mW.
	if p := tech.AccessPower(false); math.Abs(p-3e-3) > 1e-12 {
		t.Errorf("AccessPower = %g, want 3e-3", p)
	}
	if tech.CellArea() != tech.CellEdge*tech.CellEdge {
		t.Error("CellArea inconsistent")
	}
	if d := tech.PowerDensity(1e-3); math.Abs(d-4e5) > 1 {
		t.Errorf("PowerDensity(1mW) = %g W/m², want 4e5", d)
	}
}

// The lateral/vertical conductance ratio sets the thermal spreading
// length λ = sqrt(GLat/GVert) in cells; the intra-RF gradients of the
// motivating work imply λ ≈ 1.
func TestSpreadingLengthNearOneCell(t *testing.T) {
	tech := Default65nm()
	lambda := math.Sqrt(tech.LateralG() / tech.VerticalG())
	if lambda < 0.5 || lambda > 3 {
		t.Errorf("spreading length = %g cells, want ~1", lambda)
	}
}

// The sustained-access temperature rise implied by the defaults should
// land in the tens of kelvin — the hot-spot magnitude reported for
// register files in the literature the paper builds on [1,2].
func TestHotspotMagnitudePlausible(t *testing.T) {
	tech := Default65nm()
	// One register accessed every cycle, vertical path only (upper
	// bound, no lateral spreading).
	dT := tech.AccessPower(false) / tech.VerticalG()
	if dT < 10 || dT > 100 {
		t.Errorf("isolated sustained-access ΔT = %g K, want 10–100 K", dT)
	}
}
