package e2etest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"thermflow"
	"thermflow/api"
)

// postJSON posts v and decodes the response body into out, returning
// the HTTP status.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding response (%s): %v\n%s", resp.Status, err, raw)
		}
	}
	return resp.StatusCode
}

// TestRegionJobGatewayFanOut submits one mega-module as a region job
// through the gateway — the fixpoint fans out across both backends,
// exchanging only boundary states — and asserts the merged result is
// byte-identical to (a) the same spec solved whole on a single
// backend and (b) a local dense reference. δ = 0, so exact mode's
// guarantee is equality, not approximation.
func TestRegionJobGatewayFanOut(t *testing.T) {
	c := NewCluster(t, Options{Backends: 2})
	c.WaitRing(t, 2)

	prog := thermflow.GenerateMega(thermflow.MegaOptions{
		Seed: 5, Arms: 4, Depth: 1, OpsPerBlock: 4, Pressure: 8, TripCount: 8,
	})
	src := prog.Fn.String()
	opts := thermflow.Options{Solver: thermflow.SolverRegion, Regions: 4}

	// Through the gateway: kind "region" fans the solve out.
	var fanned api.JobStatus
	code := postJSON(t, c.GatewayURL+"/v2/jobs",
		api.JobRequest{Kind: "region", Program: src, Options: opts}, &fanned)
	if code != http.StatusOK {
		t.Fatalf("region job: status %d (%+v)", code, fanned)
	}
	if fanned.State != "done" || fanned.Result == nil {
		t.Fatalf("region job not done: state=%s err=%s", fanned.State, fanned.Error)
	}

	// Monolithic on one backend: the same spec as a plain job.
	var whole api.JobStatus
	code = postJSON(t, c.Backends[0].URL+"/v2/jobs",
		api.JobRequest{Program: src, Options: opts}, &whole)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("plain job: status %d", code)
	}
	resp, err := http.Get(c.Backends[0].URL + "/v2/jobs/" + whole.ID + "/wait?timeout_ms=120000")
	if err != nil {
		t.Fatalf("waiting for plain job: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&whole); err != nil {
		t.Fatalf("decoding plain job status: %v", err)
	}
	resp.Body.Close()
	if whole.State != "done" || whole.Result == nil {
		t.Fatalf("plain job not done: state=%s err=%s", whole.State, whole.Error)
	}
	if whole.ID != fanned.ID {
		t.Fatalf("job identity diverged: %s vs %s", whole.ID, fanned.ID)
	}

	// Byte-identity of the full result documents (the Cached flag is
	// serving metadata, not analysis output).
	fanned.Result.Cached = false
	whole.Result.Cached = false
	fb, _ := json.Marshal(fanned.Result)
	wb, _ := json.Marshal(whole.Result)
	if !bytes.Equal(fb, wb) {
		t.Fatalf("fan-out result differs from single-backend result:\n%s\nvs\n%s", fb, wb)
	}

	// And against the local dense reference, field by field — the
	// solver names differ, the numbers must not.
	dense, err := prog.Compile(thermflow.Options{Solver: thermflow.SolverDense})
	if err != nil {
		t.Fatalf("dense reference: %v", err)
	}
	dt, ft := dense.Thermal, fanned.Result
	if dt.Converged != ft.Converged || dt.Iterations != ft.Iterations ||
		dt.FinalDelta != ft.FinalDelta || dt.BlockSweeps != ft.BlockSweeps ||
		dt.PeakTemp != ft.PeakTemp {
		t.Fatalf("fan-out diverges from dense: conv %v/%v iter %d/%d Δ %v/%v sweeps %d/%d peak %v/%v",
			dt.Converged, ft.Converged, dt.Iterations, ft.Iterations,
			dt.FinalDelta, ft.FinalDelta, dt.BlockSweeps, ft.BlockSweeps,
			dt.PeakTemp, ft.PeakTemp)
	}
	if len(dt.RegPeak) != len(ft.RegPeak) {
		t.Fatalf("reg peak length %d vs %d", len(dt.RegPeak), len(ft.RegPeak))
	}
	for i := range dt.RegPeak {
		if dt.RegPeak[i] != ft.RegPeak[i] {
			t.Fatalf("reg %d peak %v vs %v", i, dt.RegPeak[i], ft.RegPeak[i])
		}
	}
}

// TestRegionJobSlackThroughGateway runs the same fan-out with a
// boundary slack budget: fewer exchange rounds are allowed to move the
// answer, but only within the documented (δ+σ) envelope.
func TestRegionJobSlackThroughGateway(t *testing.T) {
	c := NewCluster(t, Options{Backends: 2})
	c.WaitRing(t, 2)

	prog := thermflow.GenerateMega(thermflow.MegaOptions{
		Seed: 9, Arms: 4, Depth: 1, OpsPerBlock: 4, Pressure: 8, TripCount: 8,
	})
	src := prog.Fn.String()
	const slack = 0.02

	var fanned api.JobStatus
	code := postJSON(t, c.GatewayURL+"/v2/jobs",
		api.JobRequest{Kind: "region", Program: src,
			Options: thermflow.Options{Solver: thermflow.SolverRegion, Regions: 4, RegionDelta: slack}},
		&fanned)
	if code != http.StatusOK {
		t.Fatalf("slack region job: status %d (%+v)", code, fanned)
	}
	if fanned.State != "done" || fanned.Result == nil || !fanned.Result.Converged {
		t.Fatalf("slack region job: state=%s converged=%v", fanned.State,
			fanned.Result != nil && fanned.Result.Converged)
	}
	dense, err := prog.Compile(thermflow.Options{Solver: thermflow.SolverDense})
	if err != nil {
		t.Fatalf("dense reference: %v", err)
	}
	budget := 5 * (0.05 + slack) // 5× the (δ+σ) contraction envelope
	diff := dense.Thermal.PeakTemp - fanned.Result.PeakTemp
	if diff < 0 {
		diff = -diff
	}
	if diff > budget {
		t.Fatalf("slack peak temp off by %g, budget %g", diff, budget)
	}
}
