package thermflow

import "strings"

// Answer is what the thermal data-flow analysis answers for one
// compilation: the peak temperature, the per-register peaks, a ranking
// of the hottest variables and a summary of the register allocation.
// It is a few kilobytes where a Compiled holds the whole allocated IR
// and every thermal state, and it is the unit thermflowd stores,
// persists and serves (api.CompileResponse is this type). Its JSON
// form is the wire form.
type Answer struct {
	// Cached reports whether the server served the result from its
	// content-keyed cache (shared across clients and requests).
	Cached bool `json:"cached"`

	// Policy and Solver echo the resolved enum names; NumRegs the
	// resolved register-file size.
	Policy  string `json:"policy"`
	Solver  string `json:"solver"`
	NumRegs int    `json:"num_regs"`

	// Converged, Iterations, FinalDelta and BlockSweeps summarize the
	// thermal data-flow analysis (tdfa.Result). A false Converged is
	// the paper's "too difficult to predict at compile time"
	// diagnostic. All four are zero when the request skipped analysis.
	Converged   bool    `json:"converged"`
	Iterations  int     `json:"iterations"`
	FinalDelta  float64 `json:"final_delta_k"`
	BlockSweeps int     `json:"block_sweeps"`

	// PeakTemp is the hottest predicted temperature anywhere, in
	// kelvin; RegPeak the per-register peak (indexed by register).
	PeakTemp float64   `json:"peak_temp_k"`
	RegPeak  []float64 `json:"reg_peak_k,omitempty"`

	// HotSpots ranks the variables most involved in hot spots,
	// hottest first (truncated to the top MaxHotSpots).
	HotSpots []HotSpot `json:"hot_spots,omitempty"`

	// Alloc summarizes the register allocation.
	Alloc AllocSummary `json:"alloc"`
}

// HotSpot is one entry of the critical-variable ranking.
type HotSpot struct {
	// Name is the variable; Reg its physical register (-1 pre-alloc).
	Name string `json:"name"`
	Reg  int    `json:"reg"`
	// Score is the hotness-weighted access energy (comparable within
	// one analysis only); Accesses the estimated dynamic access count.
	Score    float64 `json:"score"`
	Accesses float64 `json:"accesses"`
}

// AllocSummary summarizes a register allocation.
type AllocSummary struct {
	// Rounds is the number of allocation attempts (1 = no spilling).
	Rounds int `json:"rounds"`
	// Spilled names the values spilled to memory; SpillLoads and
	// SpillStores count the memory instructions that inserted.
	Spilled     []string `json:"spilled,omitempty"`
	SpillLoads  int      `json:"spill_loads,omitempty"`
	SpillStores int      `json:"spill_stores,omitempty"`
	// UsedRegs is the number of distinct registers assigned;
	// Occupancy the fraction of the register file in use.
	UsedRegs  int     `json:"used_regs"`
	Occupancy float64 `json:"occupancy"`
}

// MaxHotSpots bounds an Answer's critical-variable ranking.
const MaxHotSpots = 10

// Answer summarizes the compilation (Cached unset). It shares nothing
// with c but the per-register peaks, so a caller that keeps only the
// answer lets the allocated IR and the thermal states go: variable
// names are copied out of the parsed source text they point into.
func (c *Compiled) Answer() *Answer {
	a := &Answer{
		Policy:  c.Opts.Policy.String(),
		Solver:  c.Opts.Solver.String(),
		NumRegs: c.Floorplan().NumRegs,
		Alloc: AllocSummary{
			Rounds:      c.Alloc.Rounds,
			SpillLoads:  c.Alloc.SpillLoads,
			SpillStores: c.Alloc.SpillStores,
			UsedRegs:    len(c.Alloc.UsedRegs()),
			Occupancy:   c.Alloc.Occupancy(),
		},
	}
	for _, name := range c.Alloc.Spilled {
		a.Alloc.Spilled = append(a.Alloc.Spilled, strings.Clone(name))
	}
	if t := c.Thermal; t != nil {
		a.Converged = t.Converged
		a.Iterations = t.Iterations
		a.FinalDelta = t.FinalDelta
		a.BlockSweeps = t.BlockSweeps
		a.PeakTemp = t.PeakTemp
		a.RegPeak = t.RegPeak
		for _, vh := range t.Critical[:min(len(t.Critical), MaxHotSpots)] {
			a.HotSpots = append(a.HotSpots, HotSpot{
				Name: strings.Clone(vh.Value.Name), Reg: vh.Reg,
				Score: vh.Score, Accesses: vh.Accesses,
			})
		}
	}
	return a
}
