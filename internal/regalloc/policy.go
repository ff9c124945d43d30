package regalloc

import (
	"fmt"
	"math"
	"math/rand"

	"thermflow/internal/floorplan"
)

// Policy selects the register-assignment strategy.
type Policy int

// Assignment policies.
const (
	// FirstFree always picks the lowest-numbered free register — the
	// "ordered list ... traversed in order" of the paper's motivating
	// example, which concentrates accesses on a few physical registers
	// (Fig. 1a).
	FirstFree Policy = iota
	// Random picks a uniformly random free register (Fig. 1b).
	Random
	// Chessboard cycles through registers on alternating floorplan
	// cells ("black" cells first, then "white"), so accesses are
	// distributed uniformly across the surface and no two consecutively
	// assigned registers are physically adjacent while occupancy stays
	// below half the register file (Fig. 1c, the policy of [2]).
	Chessboard
	// RoundRobin cycles through the register file, resuming after the
	// previously assigned register.
	RoundRobin
	// Coldest picks the free register with the lowest accumulated
	// heat estimate (its own assigned activity plus half of its
	// neighbours'), optionally seeded with an external per-register
	// heat profile from a prior thermal analysis.
	Coldest
	// SpreadMax picks the free register farthest from the register
	// assigned immediately before, spreading consecutive assignments
	// across the floorplan.
	SpreadMax
)

// Policies lists every policy in presentation order.
var Policies = []Policy{FirstFree, Random, Chessboard, RoundRobin, Coldest, SpreadMax}

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FirstFree:
		return "first-free"
	case Random:
		return "random"
	case Chessboard:
		return "chessboard"
	case RoundRobin:
		return "round-robin"
	case Coldest:
		return "coldest"
	case SpreadMax:
		return "spread-max"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// PolicyByName returns the policy with the given name.
func PolicyByName(name string) (Policy, bool) {
	for _, p := range Policies {
		if p.String() == name {
			return p, true
		}
	}
	return FirstFree, false
}

// selector picks physical registers for values during the select phase.
type selector struct {
	policy Policy
	k      int
	fp     *floorplan.Floorplan
	rng    *rand.Rand

	// order is the static preference order (FirstFree, Chessboard).
	order []int
	// cursor is the position in order after the previous assignment
	// (Chessboard cycles; FirstFree always rescans from the start).
	cursor int
	// half is the size of the first chessboard colour group.
	half int
	// heat accumulates per-register activity weight (Coldest).
	heat []float64
	// nbuf is neighborHeat's reused neighbour-cell buffer (Coldest).
	nbuf []int
	// last is the previously assigned register (RoundRobin, SpreadMax).
	last int
}

func newSelector(policy Policy, k int, fp *floorplan.Floorplan, seed int64, heatSeed []float64) *selector {
	s := &selector{policy: policy, k: k, fp: fp, last: -1}
	switch policy {
	case Random:
		s.rng = rand.New(rand.NewSource(seed))
	case FirstFree, RoundRobin:
		s.order = make([]int, k)
		for i := range s.order {
			s.order[i] = i
		}
	case Chessboard:
		s.order = chessboardOrder(k, fp)
		for _, r := range s.order {
			x, y := fp.XY(fp.CellOf(r))
			if (x+y)%2 != 0 {
				break
			}
			s.half++
		}
	case Coldest:
		s.heat = make([]float64, k)
		copy(s.heat, heatSeed) // heatSeed may be shorter or nil
	case SpreadMax:
		// no precomputation
	}
	return s
}

// chessboardOrder lists the "black" cells' registers first, then the
// "white" cells', each group in register order. While at most half the
// registers are in use, no two occupied cells are 4-adjacent.
func chessboardOrder(k int, fp *floorplan.Floorplan) []int {
	order := make([]int, 0, k)
	for pass := 0; pass < 2; pass++ {
		for r := 0; r < k; r++ {
			x, y := fp.XY(fp.CellOf(r))
			if (x+y)%2 == pass {
				order = append(order, r)
			}
		}
	}
	return order
}

// pick returns a register not in forbidden, or -1 when none is free.
// weight is the value's access weight (used to update the Coldest heat
// account).
func (s *selector) pick(forbidden []bool, weight float64) int {
	reg := -1
	switch s.policy {
	case FirstFree:
		for _, r := range s.order {
			if !forbidden[r] {
				reg = r
				break
			}
		}
	case Chessboard:
		// Cycle within the first colour so accesses spread uniformly
		// over the alternating cells AND usage stays confined to half
		// the file (short-lived values share black cells rather than
		// overflowing onto white ones). White cells are used only when
		// no black cell is available — the high-pressure breakdown the
		// paper's §2 warns about.
		if s.half <= 0 {
			s.half = len(s.order)
		}
		for i := 0; i < s.half; i++ {
			idx := (s.cursor + i) % s.half
			if r := s.order[idx]; !forbidden[r] {
				reg = r
				s.cursor = idx + 1
				break
			}
		}
		if reg < 0 {
			for _, r := range s.order[s.half:] {
				if !forbidden[r] {
					reg = r
					break
				}
			}
		}
	case Random:
		free := make([]int, 0, s.k)
		for r := 0; r < s.k; r++ {
			if !forbidden[r] {
				free = append(free, r)
			}
		}
		if len(free) > 0 {
			reg = free[s.rng.Intn(len(free))]
		}
	case RoundRobin:
		for i := 1; i <= s.k; i++ {
			r := (s.last + i) % s.k
			if !forbidden[r] {
				reg = r
				break
			}
		}
	case Coldest:
		best := math.Inf(1)
		for r := 0; r < s.k; r++ {
			if forbidden[r] {
				continue
			}
			score := s.heat[r] + 0.5*s.neighborHeat(r)
			if score < best {
				best = score
				reg = r
			}
		}
	case SpreadMax:
		best := -1.0
		for r := 0; r < s.k; r++ {
			if forbidden[r] {
				continue
			}
			d := 0.0
			if s.last >= 0 {
				d = s.fp.RegDist(s.last, r)
			} else {
				// First assignment: behave like FirstFree.
				d = float64(s.k - r)
			}
			if d > best {
				best = d
				reg = r
			}
		}
	}
	if reg >= 0 {
		s.last = reg
		if s.heat != nil {
			s.heat[reg] += weight
		}
	}
	return reg
}

func (s *selector) neighborHeat(r int) float64 {
	s.nbuf = s.fp.Neighbors(s.fp.CellOf(r), s.nbuf[:0])
	total := 0.0
	for _, nc := range s.nbuf {
		nr := s.fp.RegAt(nc)
		if nr >= 0 && nr < len(s.heat) {
			total += s.heat[nr]
		}
	}
	return total
}
