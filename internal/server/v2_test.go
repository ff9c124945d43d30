package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/client"
	"thermflow/internal/batch"
	"thermflow/internal/jobs"
	"thermflow/internal/tenant"
)

// occupyingJob builds a request that compiles for several hundred
// milliseconds (cold-start analysis with a slowed thermal step), long
// enough to reliably hold a registry slot across a handful of HTTP
// round trips. Distinct i values get distinct job IDs.
func occupyingJob(i int) api.JobRequest {
	return api.JobRequest{
		Kernel: "matmul",
		Options: thermflow.Options{
			NoWarmStart: true,
			Delta:       1e-9,
			MaxIter:     1 << 18,
			Kappa:       0.25 + float64(i)*1e-9,
		},
	}
}

func newJobsServer(t *testing.T, workers int, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	srv := NewConfig(batch.NewRunner(workers), cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv
}

// postJSON posts v and decodes the response body into out (when
// non-nil), returning the status code.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// The v2 lifecycle end to end: submit returns a handle immediately,
// wait long-polls to done, the result matches the batch stream's, and
// a duplicate submit converges on the same job.
func TestV2SubmitWaitDone(t *testing.T) {
	ts, _ := newJobsServer(t, 2, Config{})
	req := api.JobRequest{Kernel: "fir", Options: thermflow.Options{Policy: thermflow.Chessboard}}

	var submitted api.JobStatus
	if status := postJSON(t, ts.URL+"/v2/jobs", req, &submitted); status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if submitted.ID == "" || submitted.State == "" || submitted.Result != nil {
		t.Fatalf("submit handle: %+v", submitted)
	}

	var final api.JobStatus
	if status := getJSON(t, ts.URL+"/v2/jobs/"+submitted.ID+"/wait", &final); status != http.StatusOK {
		t.Fatalf("wait status = %d, want 200", status)
	}
	if final.State != "done" || final.Result == nil || final.Error != "" {
		t.Fatalf("final status: %+v", final)
	}
	if final.SubmittedMS == 0 || final.FinishedMS == 0 {
		t.Errorf("lifecycle timestamps missing: %+v", final)
	}

	// The result agrees with the batch stream (served from the same
	// cache entry — one identity).
	resp, err := http.Post(ts.URL+"/v2/batch", "application/json",
		strings.NewReader(`{"jobs":[{"kernel":"fir","options":{"policy":"chessboard"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var item api.JobItem
	err = json.NewDecoder(resp.Body).Decode(&item)
	resp.Body.Close()
	if err != nil || item.Result == nil {
		t.Fatalf("batch item: %+v (%v)", item, err)
	}
	if item.ID != submitted.ID || !item.Result.Cached {
		t.Errorf("batch of the finished job: ID %s cached %v, want %s from cache", item.ID, item.Result.Cached, submitted.ID)
	}
	if item.Result.PeakTemp != final.Result.PeakTemp {
		t.Errorf("batch and job results diverge: %v vs %v", item.Result.PeakTemp, final.Result.PeakTemp)
	}

	// Duplicate submit: same ID, not a new job.
	var dup api.JobStatus
	if status := postJSON(t, ts.URL+"/v2/jobs", req, &dup); status != http.StatusOK {
		t.Errorf("duplicate submit status = %d, want 200", status)
	}
	if dup.ID != submitted.ID || dup.State != "done" {
		t.Errorf("duplicate submit: %+v, want done job %s", dup, submitted.ID)
	}

	// Plain GET agrees.
	var got api.JobStatus
	if status := getJSON(t, ts.URL+"/v2/jobs/"+submitted.ID, &got); status != http.StatusOK {
		t.Errorf("get status = %d", status)
	}
	if got.State != "done" || got.Result == nil {
		t.Errorf("get: %+v", got)
	}
}

// Responses are compact JSON: a done job's status body is its compact
// encoding plus the encoder's newline.
func TestV2StatusIsCompactJSON(t *testing.T) {
	ts, _ := newJobsServer(t, 1, Config{})
	var st api.JobStatus
	if status := postJSON(t, ts.URL+"/v2/jobs", api.JobRequest{Kernel: "matmul",
		Options: thermflow.Options{Policy: thermflow.Chessboard, NumRegs: 16}}, &st); status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	resp, err := http.Get(ts.URL + "/v2/jobs/" + st.ID + "/wait")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &st); err != nil || st.State != "done" {
		t.Fatalf("status %s: %+v (%v), want done", body, st, err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}
	compact.WriteByte('\n')
	if !bytes.Equal(body, compact.Bytes()) {
		t.Fatalf("status body is %d bytes, its compact encoding %d:\n%s", len(body), compact.Len(), body)
	}
}

// An analysis whose states leave the physical bound fails the job with
// the analysis error: at κ = 1e9 the loop's windows pass the thermal
// step's substep cap and its states turn NaN in the first sweep.
func TestV2OutOfBoundAnalysisFailsJob(t *testing.T) {
	ts, _ := newJobsServer(t, 1, Config{})
	req := api.JobRequest{Program: `
func f(n) {
entry:
  i = const 0
  one = const 1
  br head
head: !trip 1000
  c = cmplt i, n
  cbr c, body, exit
body:
  i2 = add i, one
  i = mov i2
  br head
exit:
  ret i
}`, Options: thermflow.Options{Kappa: 1e9, MaxIter: 1}}
	var st api.JobStatus
	if status := postJSON(t, ts.URL+"/v2/jobs", req, &st); status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	var got api.JobStatus
	code := getJSON(t, ts.URL+"/v2/jobs/"+st.ID+"/wait?timeout_ms=60000", &got)
	if code != http.StatusOK || got.State != "failed" || got.Result != nil ||
		!strings.Contains(got.Error, "outside the physical bound") ||
		!strings.Contains(got.Error, "cap of 200000 substeps") {
		t.Fatalf("job: %d, state %q, error %q; want 200, failed with the physical-bound error",
			code, got.State, got.Error)
	}
}

// A job whose deadline passes while queued answers 504 with state
// "expired" — the 504-equivalent of the satellite checklist.
func TestV2DeadlineExpiredIs504(t *testing.T) {
	ts, _ := newJobsServer(t, 1, Config{Jobs: jobs.Config{Concurrency: 1}})

	// Saturate the single slot with a slow compile.
	var occupying api.JobStatus
	if status := postJSON(t, ts.URL+"/v2/jobs", occupyingJob(0), &occupying); status != http.StatusAccepted {
		t.Fatalf("occupying submit status = %d", status)
	}

	var handle api.JobStatus
	req := api.JobRequest{Kernel: "dot", DeadlineMS: 1}
	if status := postJSON(t, ts.URL+"/v2/jobs", req, &handle); status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	if handle.DeadlineMS == 0 {
		t.Error("handle carries no deadline")
	}

	var final api.JobStatus
	status := getJSON(t, ts.URL+"/v2/jobs/"+handle.ID+"/wait", &final)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("wait on expired job: status = %d, want 504 (body %+v)", status, final)
	}
	if final.State != "expired" || final.Error == "" || final.Result != nil {
		t.Fatalf("expired status: %+v", final)
	}
	// GET repeats the 504.
	if status := getJSON(t, ts.URL+"/v2/jobs/"+final.ID, &final); status != http.StatusGatewayTimeout {
		t.Errorf("get on expired job: status = %d, want 504", status)
	}
}

// /wait with a tiny window returns the live (non-terminal) state
// instead of hanging; unknown IDs are 404; malformed timeouts 422.
func TestV2WaitWindowAndErrors(t *testing.T) {
	ts, _ := newJobsServer(t, 1, Config{Jobs: jobs.Config{Concurrency: 1}})
	var occupying, queued api.JobStatus
	postJSON(t, ts.URL+"/v2/jobs", occupyingJob(0), &occupying)
	postJSON(t, ts.URL+"/v2/jobs", occupyingJob(1), &queued)

	var live api.JobStatus
	if status := getJSON(t, ts.URL+"/v2/jobs/"+queued.ID+"/wait?timeout_ms=1", &live); status != http.StatusOK {
		t.Fatalf("short wait status = %d", status)
	}
	if live.State != "queued" && live.State != "running" {
		t.Errorf("short wait state = %s, want live", live.State)
	}
	if status := getJSON(t, ts.URL+"/v2/jobs/no-such-job", nil); status != http.StatusNotFound {
		t.Errorf("unknown job GET status = %d, want 404", status)
	}
	if status := getJSON(t, ts.URL+"/v2/jobs/no-such-job/wait", nil); status != http.StatusNotFound {
		t.Errorf("unknown job wait status = %d, want 404", status)
	}
	if status := getJSON(t, ts.URL+"/v2/jobs/"+queued.ID+"/wait?timeout_ms=bogus", nil); status != http.StatusUnprocessableEntity {
		t.Errorf("bogus timeout status = %d, want 422", status)
	}
}

// The v2 batch stream is item-keyed by job ID: duplicates share an ID,
// failures are isolated, and IDs match what /v2/jobs would mint.
func TestV2BatchStreamKeyedByJobID(t *testing.T) {
	ts, _ := newJobsServer(t, 2, Config{})
	reqBody, _ := json.Marshal(api.JobsBatchRequest{Jobs: []api.JobRequest{
		{Kernel: "dot"},
		{Kernel: "fir"},
		{Kernel: "dot"}, // duplicate of 0
		{Kernel: "dot", Options: thermflow.Options{GridW: 2, GridH: 2}}, // fails
	}})
	resp, err := http.Post(ts.URL+"/v2/batch", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("content type %q", ct)
	}
	items := make(map[int]api.JobItem)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var item api.JobItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		items[item.Index] = item
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4", len(items))
	}
	for i := 0; i < 4; i++ {
		if items[i].ID == "" {
			t.Errorf("item %d has no job ID", i)
		}
	}
	if items[0].ID != items[2].ID {
		t.Error("duplicate jobs carry different IDs")
	}
	if items[0].ID == items[1].ID {
		t.Error("distinct jobs share an ID")
	}
	if items[3].Error == "" || items[3].Result != nil {
		t.Errorf("failing job: %+v", items[3])
	}
	if items[0].Result == nil || items[1].Result == nil || items[2].Result == nil {
		t.Error("successful jobs missing results")
	}

	// The stream's items are the jobs /v2/jobs registers: the same
	// submit converges on the batch's finished job.
	var handle api.JobStatus
	if status := postJSON(t, ts.URL+"/v2/jobs", api.JobRequest{Kernel: "dot"}, &handle); status != http.StatusOK {
		t.Fatalf("submit after batch: status = %d, want 200 (converged)", status)
	}
	if handle.ID != items[0].ID {
		t.Errorf("batch ID %s != submit ID %s", items[0].ID, handle.ID)
	}
	if handle.State != "done" || !handle.Cached || handle.Result == nil ||
		handle.Result.PeakTemp != items[0].Result.PeakTemp {
		t.Errorf("submit after batch did not converge on the batch's job: %+v", handle)
	}
}

// Submitting when the registry is full of live jobs is 503 with
// Retry-After, not silent loss.
func TestV2RegistryBusyIs503(t *testing.T) {
	ts, _ := newJobsServer(t, 1, Config{Jobs: jobs.Config{Concurrency: 1, MaxJobs: 2}})
	for i := 0; i < 2; i++ {
		if status := postJSON(t, ts.URL+"/v2/jobs", occupyingJob(i), nil); status != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", i, status)
		}
	}
	req, _ := json.Marshal(occupyingJob(2))
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// Semantic errors on the v2 surface are 422 before any job exists.
func TestV2SubmitValidation(t *testing.T) {
	ts, _ := newJobsServer(t, 1, Config{})
	cases := []api.JobRequest{
		{},
		{Kernel: "no-such-kernel"},
		{Kernel: "dot", Program: "func f() {\nentry:\n  ret\n}"},
		{Program: "not IR"},
		{Kernel: "dot", DeadlineMS: -5},
	}
	for i, req := range cases {
		var e api.ErrorResponse
		if status := postJSON(t, ts.URL+"/v2/jobs", req, &e); status != http.StatusUnprocessableEntity {
			t.Errorf("case %d: status = %d, want 422", i, status)
		} else if e.Error == "" {
			t.Errorf("case %d: empty error body", i)
		}
	}
}

// The expired-while-queued path must not wedge the worker accounting:
// after an expiry the freed slot still runs later jobs.
func TestV2ExpiredJobFreesSlot(t *testing.T) {
	ts, _ := newJobsServer(t, 1, Config{Jobs: jobs.Config{Concurrency: 1}})
	// A lighter occupier than occupyingJob: it only needs to outlive
	// the expiry sequence, and the poll below waits out its compile
	// even under -race slowdowns.
	occ := occupyingJob(0)
	occ.Options.Kappa = 1
	postJSON(t, ts.URL+"/v2/jobs", occ, nil)

	var expired api.JobStatus
	postJSON(t, ts.URL+"/v2/jobs", api.JobRequest{Kernel: "dot", DeadlineMS: 1}, &expired)
	time.Sleep(5 * time.Millisecond)

	var after api.JobStatus
	if status := postJSON(t, ts.URL+"/v2/jobs", api.JobRequest{Kernel: "fir"}, &after); status != http.StatusAccepted {
		t.Fatalf("post-expiry submit status = %d", status)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st api.JobStatus
		getJSON(t, ts.URL+"/v2/jobs/"+after.ID+"/wait?timeout_ms=2000", &st)
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s after an expiry freed the queue", st.State)
		}
	}
	var exp api.JobStatus
	if status := getJSON(t, ts.URL+"/v2/jobs/"+expired.ID, &exp); status != http.StatusGatewayTimeout {
		t.Errorf("expired job status = %d (%+v)", status, exp)
	}
}

// The v2 submit path under WithQuotas: the tenant's class dominates
// scheduling priority, its own queue cap answers 429, and pool
// admission control sheds batch-class work with 503 — displacing it
// from the queue when critical work arrives at the cap.
func TestV2SubmitTenantAdmission(t *testing.T) {
	quotas, err := tenant.Parse([]byte(`{
		"tenants": [
			{"name": "lowco", "class": "batch", "max_queue": 1, "tokens": ["low-token"]},
			{"name": "highco", "class": "critical", "tokens": ["high-token"]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewConfig(batch.NewRunner(1),
		Config{Jobs: jobs.Config{Concurrency: 1, MaxQueue: 2, QueueWatermark: 2}})
	ts := httptest.NewServer(Chain(srv, WithQuotas(QuotaConfig{Quotas: quotas})))
	t.Cleanup(func() { ts.Close(); srv.Close() })

	submit := func(i int, token string) (int, api.JobStatus, http.Header) {
		t.Helper()
		body, err := json.Marshal(occupyingJob(i))
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var st api.JobStatus
		if resp.StatusCode < 400 {
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatalf("decoding %q: %v", data, err)
			}
		}
		return resp.StatusCode, st, resp.Header
	}

	// Slot holder: highco's class folds into the scheduler priority.
	code, st, _ := submit(0, "high-token")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	if want := tenant.EffectivePriority(tenant.ClassCritical, 0); st.Priority != want {
		t.Errorf("critical submit priority %d, want %d", st.Priority, want)
	}

	code, lowSt, _ := submit(1, "low-token")
	if code != http.StatusAccepted {
		t.Fatalf("lowco's first queued submit: %d", code)
	}

	// lowco is now at its own queue cap: 429, its fault alone.
	code, _, hdr := submit(2, "low-token")
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Errorf("over-quota submit: %d (Retry-After %q), want 429",
			code, hdr.Get("Retry-After"))
	}

	// highco fills the queue to the cap, then displaces lowco's job.
	if code, _, _ := submit(3, "high-token"); code != http.StatusAccepted {
		t.Fatalf("highco queued submit: %d", code)
	}
	if code, _, _ := submit(4, "high-token"); code != http.StatusAccepted {
		t.Fatalf("highco displacing submit: %d", code)
	}
	var got api.JobStatus
	if code := getJSON(t, ts.URL+"/v2/jobs/"+lowSt.ID, &got); code != http.StatusOK {
		t.Fatalf("displaced job status read: %d", code)
	}
	if got.State != string(jobs.StateFailed) || !strings.Contains(got.Error, "shed") {
		t.Errorf("displaced job: state %s error %q, want failed/shed", got.State, got.Error)
	}

	// At the cap, batch-class work cannot outrank anything queued: 503.
	code, _, hdr = submit(5, "low-token")
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("shed submit: %d (Retry-After %q), want 503", code, hdr.Get("Retry-After"))
	}
}

// Batch items are registry jobs under the tenant's admission bounds.
// A batch-class tenant (max_queue 1, max_concurrent 1) sends 8 slow
// jobs to a registry that runs 1 at a time over 4 engine workers: the
// first runs, the second queues, the other 6 are answered at once with
// the quota error, the engine never compiles 2 at once, and both
// admitted items are readable by ID afterwards. A second tenant's item
// whose deadline passes while it waits behind them expires.
func TestBatchItemsAreRegistryJobs(t *testing.T) {
	quotas, err := tenant.Parse([]byte(`{
		"tenants": [
			{"name": "bulk", "class": "batch", "max_queue": 1, "max_concurrent": 1, "tokens": ["bulk-token"]},
			{"name": "gold", "class": "critical", "tokens": ["gold-token"]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewConfig(batch.NewRunner(4), Config{Jobs: jobs.Config{Concurrency: 1, MaxQueue: 2}})
	ts := httptest.NewServer(Chain(srv, WithQuotas(QuotaConfig{Quotas: quotas})))
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Sample the engine's in-flight compiles for the whole test.
	stop := make(chan struct{})
	maxInflight := make(chan int, 1)
	go func() {
		most := 0
		for {
			select {
			case <-stop:
				maxInflight <- most
				return
			default:
			}
			most = max(most, srv.Batch().Inflight())
			time.Sleep(100 * time.Microsecond)
		}
	}()

	postBatch := func(token string, reqs []api.JobRequest) *bufio.Scanner {
		t.Helper()
		body, err := json.Marshal(api.JobsBatchRequest{Jobs: reqs})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status = %s, want 200", resp.Status)
		}
		return bufio.NewScanner(resp.Body)
	}
	next := func(sc *bufio.Scanner) (api.JobItem, bool) {
		t.Helper()
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			return api.JobItem{}, false
		}
		var item api.JobItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		return item, true
	}

	const n = 8
	reqs := make([]api.JobRequest, n)
	for i := range reqs {
		// A lighter occupier (κ≈1): it still holds the slot across every
		// submit below, and both admitted items run to done quickly.
		reqs[i] = occupyingJob(i)
		reqs[i].Options.Kappa += 0.75
	}
	bulk := postBatch("bulk-token", reqs)
	items := make(map[int][]api.JobItem)
	first, ok := next(bulk)
	if !ok {
		t.Fatal("batch stream ended before its first item")
	}
	items[first.Index] = append(items[first.Index], first)

	// While the first bulk job holds the only slot, gold's item queues
	// behind it and its 1 ms deadline passes there.
	gold := postBatch("gold-token", []api.JobRequest{{Kernel: "dot", DeadlineMS: 1}})
	expired, ok := next(gold)
	if !ok {
		t.Fatal("deadline batch answered nothing")
	}
	if !strings.Contains(expired.Error, "deadline") || expired.Result != nil {
		t.Errorf("item whose deadline passed while queued: %+v, want an error naming the deadline", expired)
	}

	for item, ok := next(bulk); ok; item, ok = next(bulk) {
		items[item.Index] = append(items[item.Index], item)
	}
	close(stop)
	if most := <-maxInflight; most > 1 {
		t.Errorf("engine ran %d compiles at once, want at most the registry's concurrency of 1", most)
	}

	for i := 0; i < n; i++ {
		if len(items[i]) != 1 {
			t.Fatalf("item %d answered %d times, want exactly once", i, len(items[i]))
		}
		item := items[i][0]
		if i >= 2 {
			// Over the tenant's queue cap: refused at once, never a job.
			if !strings.Contains(item.Error, jobs.ErrQuota.Error()) || item.Result != nil {
				t.Errorf("item %d over the queue cap: %+v, want the tenant-quota error", i, item)
			}
			continue
		}
		if item.Error != "" || item.Result == nil {
			t.Fatalf("admitted item %d: %+v, want a result", i, item)
		}
		var st api.JobStatus
		if code := getJSON(t, ts.URL+"/v2/jobs/"+item.ID, &st); code != http.StatusOK || st.State != "done" {
			t.Errorf("GET admitted item %d: %d %+v, want 200 done", i, code, st)
		}
	}

	// The deadline belonged to gold's submit: the retained expired job
	// does not answer a later item of the same spec, which runs afresh.
	again, ok := next(postBatch("gold-token", []api.JobRequest{{Kernel: "dot"}}))
	if !ok || again.ID != expired.ID || again.Error != "" || again.Result == nil {
		t.Errorf("item after the expired job: %+v, want its result", again)
	}
}

// A batch larger than the registry runs whole: an item the registry
// refuses as full waits for one of its batch's own jobs to end and is
// submitted again, instead of being answered busy.
func TestBatchLargerThanRegistryRunsWhole(t *testing.T) {
	ts, _ := newJobsServer(t, 1, Config{Jobs: jobs.Config{Concurrency: 1, MaxJobs: 4}})
	reqs := slowJobs(6)
	got := make(map[int][]api.JobItem)
	err := client.New(ts.URL, nil).CompileBatchJobs(context.Background(), reqs,
		func(it api.JobItem) { got[it.Index] = append(got[it.Index], it) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if len(got[i]) != 1 || got[i][0].Error != "" || got[i][0].Result == nil {
			t.Errorf("item %d: %+v, want one result", i, got[i])
		}
	}
}
