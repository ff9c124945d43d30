package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"thermflow/api"
)

// stubJobs answers the v2 job API: every submit is queued, every wait
// completes the job with a fixed result, and submit number refuse[n]
// is refused with that status.
type stubJobs struct {
	mu      sync.Mutex
	submits int
	refuse  map[int]int
	states  map[string]string // job ID -> terminal state other than done
}

var stubResult = &api.CompileResponse{PeakTemp: 320, RegPeak: []float64{319, 318.5}, Converged: true}

func (s *stubJobs) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v2/jobs":
		body, _ := io.ReadAll(r.Body)
		s.mu.Lock()
		s.submits++
		status := s.refuse[s.submits]
		s.mu.Unlock()
		if status != 0 {
			w.WriteHeader(status)
			return
		}
		sum := sha256.Sum256(body)
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(api.JobStatus{ID: hex.EncodeToString(sum[:]), State: "queued"})
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/wait"):
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v2/jobs/"), "/wait")
		s.mu.Lock()
		state := s.states[id]
		s.mu.Unlock()
		st := api.JobStatus{ID: id, State: "done", Result: stubResult}
		if state != "" {
			st = api.JobStatus{ID: id, State: state, Error: "queue shed the job"}
		}
		_ = json.NewEncoder(w).Encode(st)
	default:
		http.NotFound(w, r)
	}
}

func TestServeGeneratorAgainstStub(t *testing.T) {
	stub := &stubJobs{refuse: map[int]int{5: http.StatusServiceUnavailable, 9: http.StatusTooManyRequests}}
	ts := httptest.NewServer(stub)
	defer ts.Close()

	const n = 40
	mix := serveMix(1, mixSteady, n)
	si, err := newServeInputs(1, countFresh(mix))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	w := si.newWindow(mix, &next)
	if next != countFresh(mix) {
		t.Fatalf("window used %d fresh programs, mix has %d", next, countFresh(mix))
	}
	hc := newHTTPClient(2)
	defer hc.CloseIdleConnections()
	jc := &jobClient{hc: hc, base: ts.URL}
	or := &oracle{}
	keep := sampleSet(1, n)
	arrs := openLoop(context.Background(), realClock{}, 400, n, 2, func(ctx context.Context, i int) outcome {
		return w.arrive(ctx, jc, or, i, i%2 == 0, keep[i])
	})
	st := account(arrs)
	if st.Attempted != n || st.Completed != n-2 || st.Refused503 != 1 || st.Refused429 != 1 {
		t.Errorf("account = attempted %d completed %d 503 %d 429 %d", st.Attempted, st.Completed, st.Refused503, st.Refused429)
	}
	if st.Requests != 2*(n-2)+2 {
		t.Errorf("%d requests, want a submit and a wait per completed job plus the refused submits", st.Requests)
	}
	if !or.correct() || or.checked.Load() != n-2 {
		t.Errorf("oracle: correct %v after %d checks", or.correct(), or.checked.Load())
	}
	for i := range arrs {
		if (w.trace[i] != "") != (i%2 == 0) {
			t.Errorf("arrival %d traced=%v", i, w.trace[i] != "")
		}
		if arrs[i].Outcome.OK && keep[i] && w.result[i] == nil {
			t.Errorf("sampled arrival %d kept no result", i)
		}
	}
	// The stub's answers are not what the compiler computes.
	for i, r := range w.result {
		if r != nil && sameAsLocal(w.in[i], r) {
			t.Errorf("arrival %d: a fabricated result matched the local compile", i)
		}
	}
}

func TestJobClientClassifiesTerminalFailures(t *testing.T) {
	stub := &stubJobs{states: map[string]string{}}
	ts := httptest.NewServer(stub)
	defer ts.Close()
	jc := &jobClient{hc: newHTTPClient(1), base: ts.URL}
	stub.mu.Lock()
	for body, state := range map[string]string{`{"a":1}`: "failed", `{"a":2}`: "expired"} {
		sum := sha256.Sum256([]byte(body))
		stub.states[hex.EncodeToString(sum[:])] = state
	}
	stub.mu.Unlock()
	if o, _ := jc.run(context.Background(), []byte(`{"a":1}`), ""); o.OK || o.Status != http.StatusServiceUnavailable {
		t.Errorf("shed job: %+v, want 503", o)
	}
	if o, _ := jc.run(context.Background(), []byte(`{"a":2}`), ""); o.OK || o.Status != http.StatusGatewayTimeout {
		t.Errorf("expired job: %+v, want 504", o)
	}
	if o, st := jc.run(context.Background(), []byte(`{"a":3}`), ""); !o.OK || o.Requests != 2 || st.Result == nil {
		t.Errorf("done job: %+v", o)
	}
}

func TestMetricDeltasFromExposition(t *testing.T) {
	parse := func(s string) map[string]float64 {
		m, err := parseExposition(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := parse(`# HELP thermflow_cache_requests_total x
thermflow_cache_requests_total{outcome="hit"} 10
thermflow_cache_requests_total{outcome="miss"} 5
thermflow_cache_tier_events_total{tier="memory",event="hit"} 3
thermflow_cache_tier_events_total{tier="disk",event="put"} 1
thermflow_gateway_failovers_total 0
`)
	after := parse(`thermflow_cache_requests_total{outcome="hit"} 40
thermflow_cache_requests_total{outcome="miss"} 15
thermflow_cache_tier_events_total{tier="memory",event="hit"} 23
thermflow_cache_tier_events_total{tier="disk",event="put"} 11
thermflow_cache_tier_events_total{tier="disk",event="hit"} 7
thermflow_jobs_shed_total{tenant_class="low"} 2
thermflow_gateway_failovers_total 1
`)
	d := metricDeltas(before, after)
	want := map[string]float64{
		"cache.hit_ratio": 0.75, "cache.mem_hits": 20, "cache.misses": 10,
		"cache.disk_puts": 10, "jobs.shed": 2, "gateway.failovers": 1,
	}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("%s = %v, want %v", k, d[k], v)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := api.TraceSpan{SpanID: "p", StartUS: 0, DurationUS: 100}
	spans := []api.TraceSpan{
		parent,
		{SpanID: "a", ParentID: "p", StartUS: 10, DurationUS: 30}, // 10-40
		{SpanID: "b", ParentID: "p", StartUS: 30, DurationUS: 20}, // 30-50, overlaps a
		{SpanID: "c", ParentID: "p", StartUS: 90, DurationUS: 50}, // clipped to 90-100
		{SpanID: "d", ParentID: "x", StartUS: 0, DurationUS: 100}, // not a child
		{SpanID: "e", ParentID: "a", StartUS: 60, DurationUS: 10}, // grandchild
	}
	if got := selfTime(parent, spans); got != 50*time.Microsecond {
		t.Errorf("self time %v, want 50µs", got)
	}
}
