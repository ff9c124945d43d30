package api_test

import (
	"encoding/json"
	"testing"

	"thermflow/api"
)

// The served answer's JSON shape is the API contract: key names, key
// order and which fields drop out when empty. These literals pin it,
// so a change to the Go type that moves the wire form fails here
// rather than in a client.
func TestCompileResponseWireForm(t *testing.T) {
	cases := []struct {
		name string
		resp api.CompileResponse
		want string
	}{
		{
			name: "every field set",
			resp: api.CompileResponse{
				Cached: true, Policy: "chessboard", Solver: "sparse", NumRegs: 16,
				Converged: true, Iterations: 7, FinalDelta: 0.03125, BlockSweeps: 42,
				PeakTemp: 341.5, RegPeak: []float64{330.25, 329.5},
				HotSpots: []api.HotSpot{{Name: "acc", Reg: 3, Score: 12.5, Accesses: 1024}},
				Alloc: api.AllocSummary{
					Rounds: 2, Spilled: []string{"t1"}, SpillLoads: 3, SpillStores: 1,
					UsedRegs: 15, Occupancy: 0.9375,
				},
			},
			want: `{"cached":true,"policy":"chessboard","solver":"sparse","num_regs":16,` +
				`"converged":true,"iterations":7,"final_delta_k":0.03125,"block_sweeps":42,` +
				`"peak_temp_k":341.5,"reg_peak_k":[330.25,329.5],` +
				`"hot_spots":[{"name":"acc","reg":3,"score":12.5,"accesses":1024}],` +
				`"alloc":{"rounds":2,"spilled":["t1"],"spill_loads":3,"spill_stores":1,"used_regs":15,"occupancy":0.9375}}`,
		},
		{
			name: "zero value",
			want: `{"cached":false,"policy":"","solver":"","num_regs":0,` +
				`"converged":false,"iterations":0,"final_delta_k":0,"block_sweeps":0,` +
				`"peak_temp_k":0,"alloc":{"rounds":0,"used_regs":0,"occupancy":0}}`,
		},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.resp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: wire form moved\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
