package thermal

import (
	"math"
	"math/rand"
	"testing"

	"thermflow/internal/power"
)

func newTestGrid(t *testing.T, w, h int) *Grid {
	t.Helper()
	g, err := NewGrid(w, h, power.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 8, power.Default65nm()); err == nil {
		t.Error("zero width accepted")
	}
	bad := power.Default65nm()
	bad.CycleTime = 0
	if _, err := NewGrid(8, 8, bad); err == nil {
		t.Error("invalid tech accepted")
	}
}

func TestNewStateAmbient(t *testing.T) {
	g := newTestGrid(t, 8, 8)
	s := g.NewState()
	if len(s) != 64 {
		t.Fatalf("state size = %d", len(s))
	}
	for i, v := range s {
		if v != g.TAmb {
			t.Fatalf("cell %d = %g, want ambient %g", i, v, g.TAmb)
		}
	}
}

func TestStepHeatsPoweredCell(t *testing.T) {
	g := newTestGrid(t, 4, 4)
	s := g.NewState()
	pow := make([]float64, 16)
	pow[5] = 1e-3 // 1 mW on an interior cell
	g.Step(s, pow, 1e-3)
	if s[5] <= g.TAmb {
		t.Fatalf("powered cell did not heat: %g", s[5])
	}
	// The powered cell must be the hottest.
	if s.ArgMax() != 5 {
		t.Errorf("hottest cell = %d, want 5", s.ArgMax())
	}
	// Neighbours must be warmer than far corners (diffusion).
	if s[4] <= s[15] {
		t.Errorf("neighbour (%g) not warmer than far corner (%g)", s[4], s[15])
	}
}

func TestStepCoolsTowardAmbient(t *testing.T) {
	g := newTestGrid(t, 4, 4)
	s := g.NewState()
	for i := range s {
		s[i] = g.TAmb + 20
	}
	g.Step(s, nil, 0.1) // long cooling, no power
	for i, v := range s {
		if math.Abs(v-g.TAmb) > 0.5 {
			t.Errorf("cell %d = %g, want ≈ ambient %g after cooling", i, v, g.TAmb)
		}
	}
}

func TestStepZeroDtNoop(t *testing.T) {
	g := newTestGrid(t, 2, 2)
	s := g.NewState()
	s[0] = 400
	before := s.Copy()
	g.Step(s, nil, 0)
	if s.MaxDelta(before) != 0 {
		t.Error("Step with dt=0 changed the state")
	}
}

func TestStepConvergesToSteadyState(t *testing.T) {
	g := newTestGrid(t, 4, 4)
	pow := make([]float64, 16)
	pow[0] = 5e-4
	pow[10] = 1e-3
	want := g.SteadyState(pow)
	s := g.NewState()
	// Integrate long enough (vertical time constant is ~17.5 ms).
	g.Step(s, pow, 0.5)
	if d := s.MaxDelta(want); d > 0.1 {
		t.Errorf("transient after 0.5 s deviates %g K from steady state", d)
	}
}

func TestSteadyStateEnergyBalance(t *testing.T) {
	g := newTestGrid(t, 4, 4)
	pow := make([]float64, 16)
	pow[3] = 2e-3
	s := g.SteadyState(pow)
	// Total vertical outflow must equal total input power.
	out := 0.0
	for _, v := range s {
		out += g.GVert * (v - g.TAmb)
	}
	if math.Abs(out-2e-3)/2e-3 > 1e-3 {
		t.Errorf("energy balance: outflow %g W, want 2e-3 W", out)
	}
}

func TestSteadyStateNoPower(t *testing.T) {
	g := newTestGrid(t, 3, 3)
	s := g.SteadyState(nil)
	for i, v := range s {
		if math.Abs(v-g.TAmb) > 1e-6 {
			t.Errorf("cell %d = %g, want ambient", i, v)
		}
	}
}

func TestSteadyStateSymmetry(t *testing.T) {
	g := newTestGrid(t, 5, 5)
	pow := make([]float64, 25)
	pow[12] = 1e-3 // centre
	s := g.SteadyState(pow)
	// 4-fold symmetry around the centre.
	pairs := [][2]int{{11, 13}, {7, 17}, {6, 8}, {0, 24}, {2, 22}}
	for _, p := range pairs {
		if math.Abs(s[p[0]]-s[p[1]]) > 1e-6 {
			t.Errorf("symmetry broken: cell %d = %g vs cell %d = %g",
				p[0], s[p[0]], p[1], s[p[1]])
		}
	}
}

func TestMaxStableStepPositive(t *testing.T) {
	g := newTestGrid(t, 8, 8)
	h := g.MaxStableStep()
	if h <= 0 {
		t.Fatalf("MaxStableStep = %g", h)
	}
	// Expected scale: C/(GVert+4GLat)/2 ≈ 4.4e-7/2.9e-4/2 ≈ 0.75 ms.
	if h < 1e-6 || h > 1e-2 {
		t.Errorf("MaxStableStep = %g s, expected sub-ms scale", h)
	}
}

// Stability: even with a huge requested dt the integrator must not
// oscillate or blow up.
func TestStepStableUnderLongDt(t *testing.T) {
	g := newTestGrid(t, 4, 4)
	s := g.NewState()
	pow := make([]float64, 16)
	pow[5] = 1e-3
	g.Step(s, pow, 0.05)
	for i, v := range s {
		if math.IsNaN(v) || v < g.TAmb-1 || v > g.TAmb+500 {
			t.Fatalf("cell %d diverged: %g", i, v)
		}
	}
}

func TestStateOps(t *testing.T) {
	s := State{1, 2, 3}
	c := s.Copy()
	c[0] = 99
	if s[0] != 1 {
		t.Error("Copy aliases")
	}
	if d := s.MaxDelta(State{1, 5, 3}); d != 3 {
		t.Errorf("MaxDelta = %g", d)
	}
	if s.Max() != 3 || s.Min() != 1 {
		t.Error("Max/Min wrong")
	}
	if s.Mean() != 2 {
		t.Errorf("Mean = %g", s.Mean())
	}
	if s.ArgMax() != 2 {
		t.Errorf("ArgMax = %d", s.ArgMax())
	}
	if (State{}).Mean() != 0 {
		t.Error("empty Mean")
	}
	sc := State{1, 2}.Scale(2)
	if sc[0] != 2 || sc[1] != 4 {
		t.Error("Scale wrong")
	}
	as := State{1, 1}.AddScaled(State{2, 4}, 0.5)
	if as[0] != 2 || as[1] != 3 {
		t.Error("AddScaled wrong")
	}
}

func TestWeightedMerge(t *testing.T) {
	a := State{300, 310}
	b := State{310, 330}
	m := WeightedMerge([]State{a, b}, []float64{3, 1})
	if math.Abs(m[0]-302.5) > 1e-9 || math.Abs(m[1]-315) > 1e-9 {
		t.Errorf("WeightedMerge = %v", m)
	}
	// Zero weights degrade to unweighted average.
	m0 := WeightedMerge([]State{a, b}, []float64{0, 0})
	if math.Abs(m0[0]-305) > 1e-9 {
		t.Errorf("zero-weight merge = %v", m0)
	}
	if WeightedMerge(nil, nil) != nil {
		t.Error("empty merge should be nil")
	}
	// Single state passes through.
	one := WeightedMerge([]State{a}, []float64{2})
	if one.MaxDelta(a) != 0 {
		t.Error("single-state merge changed values")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	WeightedMerge([]State{a, b}, []float64{1})
}

func TestMaxMerge(t *testing.T) {
	a := State{300, 320}
	b := State{310, 305}
	m := MaxMerge([]State{a, b})
	if m[0] != 310 || m[1] != 320 {
		t.Errorf("MaxMerge = %v", m)
	}
	if MaxMerge(nil) != nil {
		t.Error("empty MaxMerge should be nil")
	}
}

// Property: a weighted merge never exceeds the cell-wise max merge nor
// undercuts the cell-wise minimum.
func TestMergeBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 8
		k := 2 + rng.Intn(3)
		states := make([]State, k)
		weights := make([]float64, k)
		for i := range states {
			st := make(State, n)
			for j := range st {
				st[j] = 300 + rng.Float64()*50
			}
			states[i] = st
			weights[i] = rng.Float64()
		}
		merged := WeightedMerge(states, weights)
		maxed := MaxMerge(states)
		for j := 0; j < n; j++ {
			min := math.Inf(1)
			for _, st := range states {
				if st[j] < min {
					min = st[j]
				}
			}
			if merged[j] > maxed[j]+1e-9 || merged[j] < min-1e-9 {
				t.Fatalf("trial %d cell %d: merge %g outside [%g,%g]",
					trial, j, merged[j], min, maxed[j])
			}
		}
	}
}

// Property: energy is monotone — more power in one cell can only raise
// steady-state temperatures everywhere.
func TestSteadyStateMonotoneInPower(t *testing.T) {
	g := newTestGrid(t, 4, 4)
	base := make([]float64, 16)
	base[5] = 5e-4
	s1 := g.SteadyState(base)
	base[5] = 1e-3
	s2 := g.SteadyState(base)
	for i := range s1 {
		if s2[i] < s1[i]-1e-9 {
			t.Fatalf("cell %d cooled when power increased: %g -> %g", i, s1[i], s2[i])
		}
	}
}

// refNeighbors is the reference stencil's 4-connectivity table, each
// cell's neighbours listed left, right, up, down.
func refNeighbors(g *Grid) [][]int {
	nb := make([][]int, g.NumCells())
	for c := range nb {
		x, y := c%g.W, c/g.W
		if x > 0 {
			nb[c] = append(nb[c], c-1)
		}
		if x < g.W-1 {
			nb[c] = append(nb[c], c+1)
		}
		if y > 0 {
			nb[c] = append(nb[c], c-g.W)
		}
		if y < g.H-1 {
			nb[c] = append(nb[c], c+g.W)
		}
	}
	return nb
}

// refStepWith is the reference integrator: table-driven, each substep
// writing the scratch state and copying it back.
func refStepWith(g *Grid, nb [][]int, s State, pow []float64, dt float64, scratch State) {
	steps := int(math.Ceil(dt / g.MaxStableStep()))
	if steps < 1 {
		steps = 1
	}
	sub := dt / float64(steps)
	for k := 0; k < steps; k++ {
		for c := range s {
			p := 0.0
			if pow != nil {
				p = pow[c]
			}
			flux := p - g.GVert*(s[c]-g.TAmb)
			for _, n := range nb[c] {
				flux -= g.GLat * (s[c] - s[n])
			}
			scratch[c] = s[c] + sub*flux/g.C
		}
		copy(s, scratch)
	}
}

// refSteadyState is the table-driven Gauss-Seidel steady-state solve.
func refSteadyState(g *Grid, nb [][]int, pow []float64) State {
	s := g.NewState()
	for it := 0; it < steadyIterations; it++ {
		maxDelta := 0.0
		for c := range s {
			p := 0.0
			if pow != nil {
				p = pow[c]
			}
			num := p + g.GVert*g.TAmb
			den := g.GVert
			for _, n := range nb[c] {
				num += g.GLat * s[n]
				den += g.GLat
			}
			t := num / den
			if d := math.Abs(t - s[c]); d > maxDelta {
				maxDelta = d
			}
			s[c] = t
		}
		if maxDelta < steadyEpsilon {
			break
		}
	}
	return s
}

// The boundary-test stencil and the buffer-swapping integrator give
// the table-driven reference's bits on every grid shape, with and
// without power, for odd and even substep counts.
func TestStencilMatchesTableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {5, 7}, {8, 8}, {16, 4}} {
		g := newTestGrid(t, dims[0], dims[1])
		nb := refNeighbors(g)
		n := g.NumCells()
		random := make([]float64, n)
		for i := range random {
			random[i] = rng.Float64() * 4e-3
		}
		for _, pow := range [][]float64{random, nil} {
			if got, want := g.SteadyState(pow), refSteadyState(g, nb, pow); !sameBits(got, want) {
				t.Fatalf("%dx%d nil-power=%v: SteadyState differs from the reference", dims[0], dims[1], pow == nil)
			}
			for _, steps := range []int{1, 2, 3, 4, 7, 8} {
				dt := (float64(steps) - 0.5) * g.MaxStableStep()
				start := g.SteadyState(random) // a non-uniform initial state
				got, want := start.Copy(), start.Copy()
				g.StepWith(got, pow, dt, make(State, n))
				refStepWith(g, nb, want, pow, dt, make(State, n))
				if !sameBits(got, want) {
					t.Fatalf("%dx%d nil-power=%v steps=%d: StepWith differs from the reference",
						dims[0], dims[1], pow == nil, steps)
				}
			}
		}
	}
}

func sameBits(a, b State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
