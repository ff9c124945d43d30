// Package regions cuts a function's CFG into contiguous
// reverse-postorder intervals that can be solved independently and
// composed at their boundaries.
//
// A cut position p (between RPO positions p-1 and p) is legal iff no
// RPO-backward edge spans it: every edge u→v with rpoPos(v) < p ≤
// rpoPos(u) forbids the cut. Backward edges are exactly the back edges
// of natural loops (plus irreducible retreat edges), so legal cuts fall
// only on loop-nest boundaries — a loop is never split across regions,
// and a dominator subtree that forms a contiguous RPO interval stays
// whole. The induced region graph is therefore a DAG whose edges all
// point from lower to higher region index, which is what lets a
// partitioned solve schedule regions in waves (exact mode) or iterate
// them in Jacobi rounds (slack mode) while exchanging only the states
// on the cut edges.
package regions

import (
	"fmt"
	"sort"

	"thermflow/internal/cfg"
	"thermflow/internal/ir"
)

// Options parameterizes Partition.
type Options struct {
	// MaxRegions bounds the number of regions produced. Values <= 1
	// yield a single region (the monolithic plan). The actual count may
	// be lower when the CFG has fewer legal cut positions.
	MaxRegions int
	// Weights optionally gives the solve cost of each block, indexed by
	// ir.Block.Index; the greedy cut choice balances total weight per
	// region. Nil falls back to instruction counts.
	Weights []float64
}

// Region is one contiguous RPO interval of the partition.
type Region struct {
	// Index is the region's position in Plan.Regions; region edges only
	// ever point from lower to higher index.
	Index int
	// First and Last are the inclusive RPO position range.
	First, Last int
	// Blocks lists the member blocks in RPO order.
	Blocks []*ir.Block
	// Weight is the summed block weight (solve cost estimate).
	Weight float64
}

// CutEdge is a CFG edge crossing a region boundary; only the thermal
// state of the From block's exit flows across it between rounds.
type CutEdge struct {
	// From and To are block indices.
	From, To int
	// FromRegion and ToRegion are region indices; FromRegion < ToRegion
	// always holds (cut edges are RPO-forward by construction).
	FromRegion, ToRegion int
}

// Plan is a region partition of one function's CFG.
type Plan struct {
	// Regions lists the regions in RPO order of their intervals.
	Regions []Region
	// Cuts lists every inter-region CFG edge, deduplicated, ordered by
	// (From, To).
	Cuts []CutEdge
	// BlockRegion maps block index -> region index; -1 for unreachable
	// blocks (which belong to no region and are never solved).
	BlockRegion []int
}

// NumRegions returns the number of regions in the plan.
func (p *Plan) NumRegions() int { return len(p.Regions) }

// RegionOf returns the region index of block b, or -1 if unreachable.
func (p *Plan) RegionOf(b *ir.Block) int { return p.BlockRegion[b.Index] }

// Partition cuts g into at most opts.MaxRegions contiguous RPO
// intervals along legal (loop-nest) boundaries, greedily balancing
// block weight. The plan is deterministic for a given graph and
// options. A CFG with no legal cut position (one giant loop, or an
// irreducible retreat edge spanning everything) yields one region.
func Partition(g *cfg.Graph, opts Options) *Plan {
	n := len(g.RPO)
	plan := &Plan{BlockRegion: make([]int, g.NumBlocks())}
	for i := range plan.BlockRegion {
		plan.BlockRegion[i] = -1
	}
	if n == 0 {
		return plan
	}

	weights := make([]float64, n) // by RPO position
	for p, b := range g.RPO {
		w := 0.0
		if opts.Weights != nil && b.Index < len(opts.Weights) {
			w = opts.Weights[b.Index]
		}
		if w <= 0 {
			w = float64(len(b.Instrs))
		}
		if w <= 0 {
			w = 1
		}
		weights[p] = w
	}

	// Mark illegal cut positions: an edge u→v with rpoPos(v) ≤
	// rpoPos(u) (a retreat edge) forbids every cut in
	// (rpoPos(v), rpoPos(u)]. Difference-array interval marking keeps
	// this O(blocks + edges).
	forbid := make([]int, n+1)
	for _, u := range g.RPO {
		pu := g.RPOPos(u)
		for _, v := range u.Succs() {
			if !g.Reachable(v) {
				continue
			}
			if pv := g.RPOPos(v); pv <= pu {
				forbid[pv+1]++
				forbid[pu+1]--
			}
		}
	}
	var legal []int // legal cut positions in 1..n-1, ascending
	cover := 0
	for p := 1; p < n; p++ {
		cover += forbid[p]
		if cover == 0 {
			legal = append(legal, p)
		}
	}

	k := opts.MaxRegions
	if k < 1 {
		k = 1
	}
	if k > len(legal)+1 {
		k = len(legal) + 1
	}

	// Greedy balance with a dominator-subtree preference: for each
	// ideal boundary at weight i·W/k, consider the legal positions
	// whose prefix weight lies within half a region of the target and
	// cut at the one whose block sits shallowest in the dominator tree
	// (ties: nearest the target). A cut at a shallow block is a
	// dominator-subtree boundary — the seam between independent arms or
	// top-level loop nests — so the induced region DAG stays wide,
	// where a depth-blind nearest-to-target choice can pair the tail of
	// one arm with the head of the next and serialize every region.
	depths := domDepths(g)
	prefix := make([]float64, n+1)
	for p := 0; p < n; p++ {
		prefix[p+1] = prefix[p] + weights[p]
	}
	total := prefix[n]
	halfspan := total / (2 * float64(k))
	var cutPos []int
	last := 0 // previous chosen cut position
	for i := 1; i < k; i++ {
		target := total * float64(i) / float64(k)
		lo := sort.SearchInts(legal, last+1)
		if lo >= len(legal) {
			break
		}
		best := -1
		bestDepth := 0
		bestDist := 0.0
		for j := lo; j < len(legal); j++ {
			p := legal[j]
			dist := prefix[p] - target
			if dist > halfspan {
				break
			}
			if dist < -halfspan {
				continue
			}
			if dist < 0 {
				dist = -dist
			}
			if d := depths[p]; best < 0 || d < bestDepth || (d == bestDepth && dist < bestDist) {
				best, bestDepth, bestDist = p, d, dist
			}
		}
		if best < 0 {
			// Window empty: fall back to the legal position nearest the
			// target.
			j := lo + sort.Search(len(legal)-lo, func(j int) bool {
				return prefix[legal[lo+j]] >= target
			})
			if j >= len(legal) {
				j = len(legal) - 1
			}
			if j > lo && target-prefix[legal[j-1]] < prefix[legal[j]]-target {
				j--
			}
			best = legal[j]
		}
		cutPos = append(cutPos, best)
		last = best
	}

	// Materialize regions from the chosen cut positions.
	start := 0
	for _, p := range append(cutPos, n) {
		r := Region{Index: len(plan.Regions), First: start, Last: p - 1}
		for q := start; q < p; q++ {
			b := g.RPO[q]
			r.Blocks = append(r.Blocks, b)
			r.Weight += weights[q]
			plan.BlockRegion[b.Index] = r.Index
		}
		plan.Regions = append(plan.Regions, r)
		start = p
	}

	// Collect cut edges: every inter-region edge, deduplicated.
	seen := make(map[cfg.EdgeKey]bool)
	for _, u := range g.RPO {
		ru := plan.BlockRegion[u.Index]
		for _, v := range u.Succs() {
			if !g.Reachable(v) {
				continue
			}
			rv := plan.BlockRegion[v.Index]
			if ru == rv {
				continue
			}
			key := cfg.Edge(u, v)
			if seen[key] {
				continue
			}
			seen[key] = true
			plan.Cuts = append(plan.Cuts, CutEdge{
				From: u.Index, To: v.Index, FromRegion: ru, ToRegion: rv,
			})
		}
	}
	sort.Slice(plan.Cuts, func(i, j int) bool {
		if plan.Cuts[i].From != plan.Cuts[j].From {
			return plan.Cuts[i].From < plan.Cuts[j].From
		}
		return plan.Cuts[i].To < plan.Cuts[j].To
	})
	return plan
}

// domDepths returns each RPO position's depth in the dominator tree
// (entry = 0), using the graph's cached tree. A block's idom always
// precedes it in RPO, so one forward pass suffices.
func domDepths(g *cfg.Graph) []int {
	n := len(g.RPO)
	dom := g.Dom()
	depths := make([]int, n)
	for p := 1; p < n; p++ {
		b := g.RPO[p]
		if id := dom.Idom(b); id != nil && id != b {
			depths[p] = depths[g.RPOPos(id)] + 1
		}
	}
	return depths
}

// Validate checks the plan's structural invariants against its graph:
// every reachable block is in exactly one region, regions are
// contiguous RPO intervals, cut edges are exactly the inter-region
// edges and all point forward, and no natural loop is split. It is the
// property-test oracle.
func Validate(g *cfg.Graph, p *Plan) error {
	seen := make([]int, g.NumBlocks())
	for i := range seen {
		seen[i] = -1
	}
	for _, r := range p.Regions {
		if r.Last-r.First+1 != len(r.Blocks) {
			return fmt.Errorf("region %d: interval [%d,%d] holds %d blocks", r.Index, r.First, r.Last, len(r.Blocks))
		}
		for off, b := range r.Blocks {
			if pos := g.RPOPos(b); pos != r.First+off {
				return fmt.Errorf("region %d: block %s at RPO %d, expected %d", r.Index, b.Name, pos, r.First+off)
			}
			if seen[b.Index] != -1 {
				return fmt.Errorf("block %s in regions %d and %d", b.Name, seen[b.Index], r.Index)
			}
			seen[b.Index] = r.Index
			if p.BlockRegion[b.Index] != r.Index {
				return fmt.Errorf("block %s: BlockRegion says %d, member of %d", b.Name, p.BlockRegion[b.Index], r.Index)
			}
		}
	}
	for _, b := range g.Fn.Blocks {
		if g.Reachable(b) && seen[b.Index] == -1 {
			return fmt.Errorf("reachable block %s in no region", b.Name)
		}
		if !g.Reachable(b) && p.BlockRegion[b.Index] != -1 {
			return fmt.Errorf("unreachable block %s assigned region %d", b.Name, p.BlockRegion[b.Index])
		}
	}
	// Cut edges are exactly the inter-region edges and all forward.
	want := make(map[cfg.EdgeKey][2]int)
	for _, u := range g.RPO {
		for _, v := range u.Succs() {
			if !g.Reachable(v) {
				continue
			}
			ru, rv := seen[u.Index], seen[v.Index]
			if ru != rv {
				want[cfg.Edge(u, v)] = [2]int{ru, rv}
			}
		}
	}
	if len(want) != len(p.Cuts) {
		return fmt.Errorf("plan has %d cut edges, CFG has %d inter-region edges", len(p.Cuts), len(want))
	}
	for _, c := range p.Cuts {
		rs, ok := want[cfg.EdgeKey{From: c.From, To: c.To}]
		if !ok {
			return fmt.Errorf("cut %d->%d is not an inter-region edge", c.From, c.To)
		}
		if rs != [2]int{c.FromRegion, c.ToRegion} {
			return fmt.Errorf("cut %d->%d regions (%d,%d), want (%d,%d)", c.From, c.To, c.FromRegion, c.ToRegion, rs[0], rs[1])
		}
		if c.FromRegion >= c.ToRegion {
			return fmt.Errorf("cut %d->%d not forward: region %d -> %d", c.From, c.To, c.FromRegion, c.ToRegion)
		}
	}
	// No natural loop split across regions.
	li := g.Loops(0)
	for _, l := range li.Loops {
		r := -1
		for b := range l.Blocks {
			if !g.Reachable(b) {
				continue
			}
			if r == -1 {
				r = seen[b.Index]
			} else if seen[b.Index] != r {
				return fmt.Errorf("loop %s split across regions %d and %d", l.Header.Name, r, seen[b.Index])
			}
		}
	}
	return nil
}
