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
