package regalloc

import (
	"errors"
	"fmt"
	"sort"

	"thermflow/internal/analysis"
	"thermflow/internal/cfg"
	"thermflow/internal/floorplan"
	"thermflow/internal/interference"
	"thermflow/internal/ir"
)

// Config parameterizes an allocation run.
type Config struct {
	// NumRegs is the number of physical registers (K).
	NumRegs int
	// Policy selects the assignment strategy.
	Policy Policy
	// FP is the register-file floorplan; required by the
	// floorplan-aware policies (Chessboard, Coldest, SpreadMax). When
	// nil, floorplan.Default() is used.
	FP *floorplan.Floorplan
	// Seed drives the Random policy.
	Seed int64
	// HeatSeed optionally provides per-register heat estimates (e.g.
	// from a previous thermal analysis) consumed by the Coldest policy.
	HeatSeed []float64
	// DefaultTrip overrides the assumed loop trip count for frequency
	// estimation (0 = cfg.DefaultTrip).
	DefaultTrip int
	// MaxSpillRounds bounds the spill-and-retry iterations (0 = 16).
	MaxSpillRounds int
	// SpillBudget caps how large the spill-rewritten program may grow,
	// in instructions (0 = 32× the input size + 256). Each spill round
	// can grow the program multiplicatively — every access of a spilled
	// value gains an address const plus a load or store — so on
	// infeasible register files (e.g. NumRegs 1, where a binary
	// operation needs two simultaneously live registers) the round
	// bound alone is ineffective. Exceeding the budget aborts the
	// allocation with a *BudgetError in bounded time.
	SpillBudget int
}

// ErrSpillBudget is the sentinel matched by errors.Is for allocations
// aborted because spill rewriting exceeded the work budget.
var ErrSpillBudget = errors.New("spill work budget exceeded")

// BudgetError reports an allocation aborted because the spill-rewritten
// program outgrew Config.SpillBudget: the register file is too small
// for the program (spilling is not reducing pressure), so retrying
// would only grow the program further. It unwraps to ErrSpillBudget.
type BudgetError struct {
	// Rounds is the number of spill rounds completed before the abort.
	Rounds int
	// Instrs is the rewritten program's instruction count; Budget the
	// cap it exceeded.
	Instrs, Budget int
	// Spilled is the number of values spilled so far.
	Spilled int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf(
		"regalloc: %v: program grew to %d instructions (budget %d) after %d spill rounds (%d values spilled); the register file is too small for this program",
		ErrSpillBudget, e.Instrs, e.Budget, e.Rounds, e.Spilled)
}

// Unwrap makes errors.Is(err, ErrSpillBudget) match.
func (e *BudgetError) Unwrap() error { return ErrSpillBudget }

// Allocation is the result of register allocation: a (possibly
// spill-rewritten) function plus the value-to-register assignment.
type Allocation struct {
	// Fn is the allocated function. If spilling occurred this is a
	// rewritten clone of the input; otherwise it is the input function
	// itself.
	Fn *ir.Function
	// RegOf maps value ID to physical register, or -1 for values that
	// never needed one. Indexed by ID of Fn's values.
	RegOf []int
	// Spilled lists the names of original values that were spilled to
	// memory.
	Spilled []string
	// SpillLoads and SpillStores count the memory instructions the
	// spill rewriting inserted.
	SpillLoads, SpillStores int
	// Rounds is the number of allocation attempts (1 = no spilling).
	Rounds int
	// Freq is the static frequency estimate of the input function,
	// made once per allocation. Spilling only inserts instructions into
	// existing blocks, so it is also Fn's estimate, bit for bit: the
	// thermal analysis of Fn reuses it instead of estimating again.
	Freq *cfg.Freq
	// Policy echoes the policy used.
	Policy Policy
	// FP echoes the floorplan used.
	FP *floorplan.Floorplan
}

// Reg returns the physical register of value v, or -1.
func (a *Allocation) Reg(v *ir.Value) int { return a.RegOf[v.ID] }

// UsedRegs returns the distinct physical registers assigned to at least
// one value, ascending.
func (a *Allocation) UsedRegs() []int {
	seen := make(map[int]bool)
	for _, r := range a.RegOf {
		if r >= 0 {
			seen[r] = true
		}
	}
	out := make([]int, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Occupancy returns the fraction of the register file in use.
func (a *Allocation) Occupancy() float64 {
	return float64(len(a.UsedRegs())) / float64(a.FP.NumRegs)
}

// Allocate colours fn's values with cfgAlloc.NumRegs registers,
// spilling and retrying as needed. The input function is never mutated:
// if spilling is required, a clone is rewritten.
func Allocate(fn *ir.Function, cfgAlloc Config) (*Allocation, error) {
	if cfgAlloc.NumRegs <= 0 {
		return nil, fmt.Errorf("regalloc: NumRegs must be positive, got %d", cfgAlloc.NumRegs)
	}
	fp := cfgAlloc.FP
	if fp == nil {
		fp = floorplan.Default()
	}
	if cfgAlloc.NumRegs > fp.NumRegs {
		return nil, fmt.Errorf("regalloc: %d registers exceed floorplan capacity %d",
			cfgAlloc.NumRegs, fp.NumRegs)
	}
	maxRounds := cfgAlloc.MaxSpillRounds
	if maxRounds <= 0 {
		maxRounds = 16
	}
	budget := cfgAlloc.SpillBudget
	if budget <= 0 {
		budget = 32*fn.NumInstrs() + 256
	}

	// The first round colours the input's own graph; later rounds
	// rebuild it for the spill-rewritten clone.
	g := cfg.Build(fn)
	fr := cfg.EstimateFreq(g, g.Loops(cfgAlloc.DefaultTrip))
	cur := fn
	var spilled []string
	loads, stores := 0, 0
	for round := 1; round <= maxRounds; round++ {
		if round > 1 {
			g = cfg.Build(cur)
		}
		res, toSpill := tryColor(g, fr, cfgAlloc, fp)
		if len(toSpill) == 0 {
			res.Freq = fr
			res.Spilled = spilled
			res.SpillLoads = loads
			res.SpillStores = stores
			res.Rounds = round
			return res, nil
		}
		if cur == fn {
			cur = fn.Clone()
		}
		toSpill = dedupe(toSpill)
		for _, vname := range toSpill {
			v := cur.ValueNamed(vname)
			if v == nil {
				return nil, fmt.Errorf("regalloc: spill candidate %s vanished", vname)
			}
			l, s := spillValue(cur, v)
			loads += l
			stores += s
			spilled = append(spilled, vname)
		}
		cur.Renumber()
		if err := ir.Verify(cur); err != nil {
			return nil, fmt.Errorf("regalloc: spill rewrite broke the IR: %w", err)
		}
		if n := cur.NumInstrs(); n > budget {
			return nil, &BudgetError{
				Rounds: round, Instrs: n, Budget: budget, Spilled: len(spilled),
			}
		}
	}
	return nil, fmt.Errorf("regalloc: did not converge after %d spill rounds (%d values spilled)",
		maxRounds, len(spilled))
}

// dedupe removes duplicate names preserving first occurrence; the
// eviction fallback can nominate the same neighbour more than once.
func dedupe(names []string) []string {
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// tryColor attempts one colouring pass over g's function, weighting
// spill costs by the frequency estimate fr. On success the returned
// spill list is empty; otherwise it names values to spill before
// retrying.
func tryColor(g *cfg.Graph, fr *cfg.Freq, cfgAlloc Config, fp *floorplan.Floorplan) (*Allocation, []string) {
	fn := g.Fn
	lv := analysis.ComputeLiveness(g)
	ig := interference.Build(g, lv)
	du := analysis.ComputeDefUse(fn)

	// Per-node tables are indexed by value ID.
	k := cfgAlloc.NumRegs
	nodes := ig.Nodes()
	nv := fn.NumValues()
	weight := make([]float64, nv)
	for _, v := range nodes {
		weight[v] = du.WeightedAccesses(fn.Values()[v], fr.Block)
	}

	// Simplify: peel nodes of degree < k; when stuck, optimistically
	// push the cheapest spill candidate (lowest weight/degree ratio).
	removed := make([]bool, nv)
	degree := make([]int, nv)
	for _, v := range nodes {
		d := 0
		ig.ForEachNeighbor(v, func(u int) {
			if ig.NeedsRegister(u) {
				d++
			}
		})
		degree[v] = d
	}
	var stack []int
	remaining := len(nodes)
	for remaining > 0 {
		picked := -1
		for _, v := range nodes {
			if !removed[v] && degree[v] < k {
				picked = v
				break
			}
		}
		if picked < 0 {
			// Blocked: choose the spill candidate with the lowest
			// cost-to-degree ratio, but push it optimistically — it may
			// still colour. The spill base is never a candidate
			// (spilling it would need another base register) and spill
			// temps are avoided unless nothing else remains.
			pickBest := func(allowTemps bool) int {
				best, bestScore := -1, 0.0
				for _, v := range nodes {
					name := fn.Values()[v].Name
					if removed[v] || isSpillBase(name) {
						continue
					}
					if !allowTemps && isSpillTemp(name) {
						continue
					}
					score := (weight[v] + 1) / float64(degree[v]+1)
					if best < 0 || score < bestScore {
						best, bestScore = v, score
					}
				}
				return best
			}
			best := pickBest(false)
			if best < 0 {
				best = pickBest(true)
			}
			if best < 0 {
				// Only the spill base remains: push it and let select
				// handle it (it colours unless K is saturated).
				for _, v := range nodes {
					if !removed[v] {
						best = v
						break
					}
				}
			}
			picked = best
		}
		removed[picked] = true
		remaining--
		stack = append(stack, picked)
		ig.ForEachNeighbor(picked, func(u int) {
			if ig.NeedsRegister(u) && !removed[u] {
				degree[u]--
			}
		})
	}

	// Select: pop in reverse, assign via policy.
	sel := newSelector(cfgAlloc.Policy, k, fp, cfgAlloc.Seed, cfgAlloc.HeatSeed)
	regOf := make([]int, nv)
	for i := range regOf {
		regOf[i] = -1
	}
	var spill []string
	forbidden := make([]bool, k)
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		for r := range forbidden {
			forbidden[r] = false
		}
		ig.ForEachNeighbor(v, func(u int) {
			if r := regOf[u]; r >= 0 {
				forbidden[r] = true
			}
		})
		r := sel.pick(forbidden, weight[v])
		if r < 0 {
			name := fn.Values()[v].Name
			if isSpillBase(name) || isSpillTemp(name) {
				// The base must stay in a register, and re-spilling a
				// reload temp cannot help; evict the heaviest coloured
				// regular neighbour instead.
				evict, evictW := -1, -1.0
				ig.ForEachNeighbor(v, func(u int) {
					un := fn.Values()[u].Name
					if regOf[u] >= 0 && !isSpillBase(un) && !isSpillTemp(un) && weight[u] > evictW {
						evict, evictW = u, weight[u]
					}
				})
				if evict >= 0 {
					spill = append(spill, fn.Values()[evict].Name)
					continue
				}
			}
			spill = append(spill, name)
			continue
		}
		regOf[v] = r
	}
	if len(spill) > 0 {
		return nil, spill
	}
	return &Allocation{
		Fn:     fn,
		RegOf:  regOf,
		Policy: cfgAlloc.Policy,
		FP:     fp,
	}, nil
}
