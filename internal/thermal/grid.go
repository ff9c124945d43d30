// Package thermal implements the RC-equivalent thermal model of the
// register file: a grid of cells, each with a heat capacity, a lateral
// conductance to its 4-connected neighbours and a vertical conductance
// to the ambient (HotSpot-style compact model, the same abstraction the
// paper's emulation framework [5] evaluates in hardware).
//
// The package provides a transient forward-Euler integrator with an
// automatic stability guard, a Gauss-Seidel steady-state solver, and
// the thermal-state vector operations the data-flow analysis needs
// (copy, maximum difference, frequency-weighted merge).
package thermal

import (
	"fmt"
	"math"

	"thermflow/internal/power"
)

// State is a thermal state: one temperature (K) per grid cell. It is
// the data-flow fact of the thermal analysis ("a discrete set of
// points" approximating the continuous temperature field, paper §3).
type State []float64

// Grid is the RC thermal model of a W×H cell array.
type Grid struct {
	// W and H are the grid dimensions in cells.
	W, H int
	// C is the per-cell heat capacity in J/K.
	C float64
	// GLat is the cell-to-cell lateral conductance in W/K.
	GLat float64
	// GVert is the cell-to-ambient vertical conductance in W/K.
	GVert float64
	// TAmb is the ambient (heat-sink) temperature in K.
	TAmb float64
}

// NewGrid builds the thermal grid for a W×H array using the technology
// parameters.
func NewGrid(w, h int, tech power.Tech) (*Grid, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("thermal: invalid grid %dx%d", w, h)
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	g := &Grid{
		W: w, H: h,
		C:     tech.CellHeatCap(),
		GLat:  tech.LateralG(),
		GVert: tech.VerticalG(),
		TAmb:  tech.TAmbient,
	}
	return g, nil
}

// NumCells returns the number of cells.
func (g *Grid) NumCells() int { return g.W * g.H }

// NewState returns a state with every cell at the ambient temperature.
func (g *Grid) NewState() State {
	s := make(State, g.NumCells())
	for i := range s {
		s[i] = g.TAmb
	}
	return s
}

// MaxStableStep returns the largest forward-Euler time step that keeps
// the integration stable: dt ≤ C / Σ(conductances) with a 2× safety
// margin.
func (g *Grid) MaxStableStep() float64 {
	gMax := g.GVert + 4*g.GLat
	return 0.5 * g.C / gMax
}

// MaxSubsteps caps the forward-Euler substeps one Step integrates:
// beyond ~50 thermal time constants the state is at its fixed point,
// so integrating longer is waste. A window longer than MaxSubsteps ×
// MaxStableStep takes substeps past the stable step.
const MaxSubsteps = 200000

// Step advances the state by dt seconds under the given per-cell power
// input (W). If dt exceeds the stable step it is subdivided
// automatically, up to MaxSubsteps. pow may be nil for zero power (pure
// cooling).
func (g *Grid) Step(s State, pow []float64, dt float64) {
	g.StepWith(s, pow, dt, make(State, len(s)))
}

// StepWith is Step with a caller-provided scratch state (same length as
// s), for hot loops that cannot afford the per-call allocation. scratch
// holds no meaningful data afterwards.
func (g *Grid) StepWith(s State, pow []float64, dt float64, scratch State) {
	if dt <= 0 {
		return
	}
	h := g.MaxStableStep()
	steps := int(math.Ceil(dt / h))
	if steps < 1 {
		steps = 1
	}
	if steps > MaxSubsteps {
		steps = MaxSubsteps
	}
	sub := dt / float64(steps)
	cur, next := s, scratch
	for k := 0; k < steps; k++ {
		g.step(cur, next, pow, sub)
		cur, next = next, cur
	}
	if steps%2 == 1 {
		copy(s, cur)
	}
}

// step writes into out the state s advances to in dt seconds. Each
// cell exchanges heat with its 4-connected neighbours, found by
// boundary tests and summed left, right, up, down.
func (g *Grid) step(s, out State, pow []float64, dt float64) {
	w, h := g.W, g.H
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := y*w + x
			p := 0.0
			if pow != nil {
				p = pow[c]
			}
			t := s[c]
			flux := p - g.GVert*(t-g.TAmb)
			if x > 0 {
				flux -= g.GLat * (t - s[c-1])
			}
			if x < w-1 {
				flux -= g.GLat * (t - s[c+1])
			}
			if y > 0 {
				flux -= g.GLat * (t - s[c-w])
			}
			if y < h-1 {
				flux -= g.GLat * (t - s[c+w])
			}
			out[c] = t + dt*flux/g.C
		}
	}
}

// steadyIterations bounds the Gauss-Seidel sweeps of SteadyState.
const steadyIterations = 100000

// steadyEpsilon is the convergence threshold in kelvin.
const steadyEpsilon = 1e-9

// SteadyState solves the static heat balance GVert·(T−TAmb) +
// Σ GLat·(T−Tn) = P for every cell and returns the resulting state.
func (g *Grid) SteadyState(pow []float64) State {
	s := g.NewState()
	w, h := g.W, g.H
	for it := 0; it < steadyIterations; it++ {
		maxDelta := 0.0
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				c := y*w + x
				p := 0.0
				if pow != nil {
					p = pow[c]
				}
				num := p + g.GVert*g.TAmb
				den := g.GVert
				if x > 0 {
					num += g.GLat * s[c-1]
					den += g.GLat
				}
				if x < w-1 {
					num += g.GLat * s[c+1]
					den += g.GLat
				}
				if y > 0 {
					num += g.GLat * s[c-w]
					den += g.GLat
				}
				if y < h-1 {
					num += g.GLat * s[c+w]
					den += g.GLat
				}
				t := num / den
				if d := math.Abs(t - s[c]); d > maxDelta {
					maxDelta = d
				}
				s[c] = t
			}
		}
		if maxDelta < steadyEpsilon {
			break
		}
	}
	return s
}

// Copy returns an independent copy of the state.
func (s State) Copy() State {
	c := make(State, len(s))
	copy(c, s)
	return c
}

// CopyFrom overwrites s with src (same length), avoiding reallocation
// in per-instruction hot loops.
func (s State) CopyFrom(src State) { copy(s, src) }

// MaxDelta returns the largest absolute per-cell temperature difference
// between two states — the quantity compared against δ in the
// convergence test of Fig. 2.
func (s State) MaxDelta(t State) float64 {
	max := 0.0
	for i := range s {
		if d := math.Abs(s[i] - t[i]); d > max {
			max = d
		}
	}
	return max
}

// Max returns the hottest cell temperature.
func (s State) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s {
		if v > max {
			max = v
		}
	}
	return max
}

// Min returns the coldest cell temperature.
func (s State) Min() float64 {
	min := math.Inf(1)
	for _, v := range s {
		if v < min {
			min = v
		}
	}
	return min
}

// Mean returns the average cell temperature.
func (s State) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// ArgMax returns the index of the hottest cell.
func (s State) ArgMax() int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range s {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Scale multiplies every cell by k in place and returns s.
func (s State) Scale(k float64) State {
	for i := range s {
		s[i] *= k
	}
	return s
}

// AddScaled adds k·t to s in place and returns s.
func (s State) AddScaled(t State, k float64) State {
	for i := range s {
		s[i] += k * t[i]
	}
	return s
}

// WeightedMerge returns the weighted average of the given states. This
// is the join operator of the thermal analysis: at a control-flow merge
// the incoming thermal states are blended by edge frequency. Weights
// are normalized; all-zero weights yield an unweighted average.
func WeightedMerge(states []State, weights []float64) State {
	if len(states) == 0 {
		return nil
	}
	out := make(State, len(states[0]))
	WeightedMergeInto(out, states, weights)
	return out
}

// WeightedMergeInto is WeightedMerge writing into dst, for hot loops
// that reuse the destination.
func WeightedMergeInto(dst State, states []State, weights []float64) {
	if len(states) != len(weights) {
		panic("thermal: WeightedMerge length mismatch")
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i := range dst {
		dst[i] = 0
	}
	if total <= 0 {
		eq := 1.0 / float64(len(states))
		for _, st := range states {
			dst.AddScaled(st, eq)
		}
		return
	}
	for i, st := range states {
		dst.AddScaled(st, weights[i]/total)
	}
}

// MaxMerge returns the cell-wise maximum of the given states — the
// conservative alternative join evaluated by ablation A2.
func MaxMerge(states []State) State {
	if len(states) == 0 {
		return nil
	}
	out := make(State, len(states[0]))
	MaxMergeInto(out, states)
	return out
}

// MaxMergeInto is MaxMerge writing into dst, for hot loops that reuse
// the destination.
func MaxMergeInto(dst State, states []State) {
	dst.CopyFrom(states[0])
	for _, st := range states[1:] {
		for i, v := range st {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}
}
