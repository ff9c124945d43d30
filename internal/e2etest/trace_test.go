package e2etest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"thermflow"
	"thermflow/api"
	"thermflow/internal/server"
	"thermflow/internal/trace"
)

// getTrace fetches a job's recorded timeline from base.
func getTrace(t *testing.T, base, id string) api.TraceResponse {
	t.Helper()
	resp, err := http.Get(base + "/v2/jobs/" + id + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %s", resp.Status)
	}
	var out api.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	return out
}

// postTraced posts a job request under sc's trace identity.
func postTraced(t *testing.T, url string, sc trace.SpanContext, req api.JobRequest, out *api.JobStatus) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(server.TraceHeader, sc.Header())
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding response (%s): %v", resp.Status, err)
	}
	return resp
}

// waitTraced long-polls a job to a terminal state, keeping every poll
// under sc's trace so the job's timeline stays a single trace.
func waitTraced(t *testing.T, base, id string, sc trace.SpanContext, out *api.JobStatus) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v2/jobs/"+id+"/wait?timeout_ms=60000", nil)
	if err != nil {
		t.Fatalf("building wait request: %v", err)
	}
	req.Header.Set(server.TraceHeader, sc.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding wait: %v", err)
	}
}

// TestRegionJobTraceStitchedAcrossBackends submits a region job through
// the gateway under a client-minted trace and asserts the gateway's
// stitched timeline is one trace spanning the whole pool: coordination
// and round spans from the gateway, and region-solve spans recorded by
// at least two distinct backends, all linked parent-to-child under the
// client's trace ID.
func TestRegionJobTraceStitchedAcrossBackends(t *testing.T) {
	c := NewCluster(t, Options{Backends: 2})
	c.WaitRing(t, 2)

	// Region → backend placement hashes the (job, region) key onto the
	// ring, and backend identities are ephemeral ports, so one seed can
	// legitimately land every region on one member. A few seeds make
	// that astronomically unlikely without fixing the placement.
	var tr api.TraceResponse
	var sc trace.SpanContext
	backends := map[string]bool{}
	for seed := int64(1); seed <= 5; seed++ {
		prog := thermflow.GenerateMega(thermflow.MegaOptions{
			Seed: seed, Arms: 8, Depth: 1, OpsPerBlock: 4, Pressure: 8, TripCount: 8,
		})
		sc = trace.New()
		var st api.JobStatus
		resp := postTraced(t, c.GatewayURL+"/v2/jobs", sc,
			api.JobRequest{Kind: "region", Program: prog.Fn.String(),
				Options: thermflow.Options{Solver: thermflow.SolverRegion, Regions: 8}}, &st)
		if resp.StatusCode != http.StatusOK || st.State != "done" {
			t.Fatalf("region job: status %d state=%s err=%s", resp.StatusCode, st.State, st.Error)
		}

		// The response echoes the client's trace with a fresh server span.
		echo, ok := trace.ParseHeader(resp.Header.Get(server.TraceHeader))
		if !ok || echo.TraceID != sc.TraceID || echo.SpanID == sc.SpanID {
			t.Fatalf("response trace header %q does not continue client trace %s",
				resp.Header.Get(server.TraceHeader), sc.TraceID)
		}

		tr = getTrace(t, c.GatewayURL, st.ID)
		backends = map[string]bool{}
		for _, sp := range tr.Spans {
			if sp.Name == "region.solve" {
				backends[sp.Attrs["backend"]] = true
			}
		}
		if len(backends) >= 2 {
			break
		}
	}
	if len(backends) < 2 {
		t.Fatalf("region.solve spans from %d distinct backends across 5 seeds, want >= 2", len(backends))
	}

	if tr.TraceID != sc.TraceID {
		t.Fatalf("timeline trace %s, want client trace %s", tr.TraceID, sc.TraceID)
	}
	names := map[string]int{}
	spanName := map[string]string{} // span ID -> name, for parent-link checks
	for _, sp := range tr.Spans {
		if sp.TraceID != sc.TraceID {
			t.Fatalf("span %s (%s) has trace %s, want %s", sp.SpanID, sp.Name, sp.TraceID, sc.TraceID)
		}
		names[sp.Name]++
		spanName[sp.SpanID] = sp.Name
	}
	for _, want := range []string{"http.server", "region.coordinate", "region.round", "region.solve"} {
		if names[want] == 0 {
			t.Fatalf("timeline has no %s span (got %v)", want, names)
		}
	}

	// The stitch must preserve the phase hierarchy: rounds under the
	// coordination span, backend solves under their round.
	wantParent := map[string]string{
		"region.round": "region.coordinate",
		"region.solve": "region.round",
	}
	for _, sp := range tr.Spans {
		want, checked := wantParent[sp.Name]
		if !checked {
			continue
		}
		if got := spanName[sp.ParentID]; got != want {
			t.Fatalf("%s span parented under %q span %s, want %s", sp.Name, got, sp.ParentID, want)
		}
		if sp.Name == "region.solve" {
			if sp.Service != "thermflowd" {
				t.Fatalf("region.solve span service %q, want thermflowd", sp.Service)
			}
			if sp.Attrs["queue_us"] == "" {
				t.Fatalf("region.solve span missing queue_us attr: %v", sp.Attrs)
			}
		}
	}
}

// TestPlainJobTraceLifecyclePhases submits a plain async job directly
// to one backend under a client trace and asserts the backend's
// timeline carries the queue/run/solve phase chain hanging off the
// submit request's server span.
func TestPlainJobTraceLifecyclePhases(t *testing.T) {
	c := NewCluster(t, Options{Backends: 1})
	c.WaitRing(t, 1)
	b := c.Backends[0]

	sc := trace.New()
	var st api.JobStatus
	resp := postTraced(t, b.URL+"/v2/jobs", sc,
		api.JobRequest{Kernel: "dot", Options: thermflow.Options{Policy: thermflow.Coldest}}, &st)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitTraced(t, b.URL, st.ID, sc, &st)
	if st.State != "done" {
		t.Fatalf("job not done: state=%s err=%s", st.State, st.Error)
	}

	tr := getTrace(t, b.URL, st.ID)
	if tr.TraceID != sc.TraceID {
		t.Fatalf("timeline trace %s, want client trace %s", tr.TraceID, sc.TraceID)
	}
	byName := map[string]api.TraceSpan{}
	for _, sp := range tr.Spans {
		if sp.TraceID != sc.TraceID {
			t.Fatalf("span %s (%s) has trace %s, want %s", sp.SpanID, sp.Name, sp.TraceID, sc.TraceID)
		}
		byName[sp.Name] = sp
	}
	for _, want := range []string{"http.server", "job.queued", "job.run", "job.solve"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("timeline missing %s span (got %d spans)", want, len(tr.Spans))
		}
	}
	// Phase chain: job.queued hangs off a server span, job.run off
	// job.queued, job.solve off job.run.
	if byName["job.run"].ParentID != byName["job.queued"].SpanID {
		t.Fatalf("job.run parent %s, want job.queued span %s",
			byName["job.run"].ParentID, byName["job.queued"].SpanID)
	}
	if byName["job.solve"].ParentID != byName["job.run"].SpanID {
		t.Fatalf("job.solve parent %s, want job.run span %s",
			byName["job.solve"].ParentID, byName["job.run"].SpanID)
	}
	serverSpans := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.Name == "http.server" {
			serverSpans[sp.SpanID] = true
		}
	}
	if !serverSpans[byName["job.queued"].ParentID] {
		t.Fatalf("job.queued parent %s is not a recorded server span", byName["job.queued"].ParentID)
	}
}

// TestPlainJobTraceMergedThroughGateway submits a plain job via the
// gateway and asserts GET /v2/jobs/{id}/trace on the gateway answers
// the merged cross-process view: the backend's lifecycle spans plus the
// gateway's own edge span, under the client's trace ID.
func TestPlainJobTraceMergedThroughGateway(t *testing.T) {
	c := NewCluster(t, Options{Backends: 2})
	c.WaitRing(t, 2)

	sc := trace.New()
	var st api.JobStatus
	resp := postTraced(t, c.GatewayURL+"/v2/jobs", sc,
		api.JobRequest{Kernel: "saxpy", Options: thermflow.Options{Policy: thermflow.Coldest}}, &st)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitTraced(t, c.GatewayURL, st.ID, sc, &st)
	if st.State != "done" {
		t.Fatalf("job not done: state=%s err=%s", st.State, st.Error)
	}

	tr := getTrace(t, c.GatewayURL, st.ID)
	services := map[string]bool{}
	names := map[string]int{}
	for _, sp := range tr.Spans {
		if sp.TraceID != sc.TraceID {
			t.Fatalf("span %s (%s) has trace %s, want %s", sp.SpanID, sp.Name, sp.TraceID, sc.TraceID)
		}
		names[sp.Name]++
		services[sp.Service] = true
	}
	for _, want := range []string{"job.queued", "job.run"} {
		if names[want] == 0 {
			t.Fatalf("merged timeline missing %s span (got %v)", want, names)
		}
	}
	if !services["thermflowd"] || !services["thermflowgate"] {
		t.Fatalf("merged timeline should carry spans from both services, got %v", services)
	}
}
