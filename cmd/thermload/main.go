// Command thermload is an open-loop load generator for thermflowd and
// thermflowgate: it offers requests at fixed arrival rates — a ticker
// fires regardless of how many responses are still outstanding, which
// is what makes the measurement honest under saturation (a closed loop
// self-throttles and hides queueing) — and reports per-stage achieved
// throughput, latency percentiles and error attribution.
//
// Every arrival is a POST /v2/jobs followed by a wait long-poll;
// latency covers submit through terminal state (a job shed from the
// queue counts as 503). Every request carries a fresh X-Thermflow-Trace
// header, so each arrival starts its own trace through the serving
// plane. Per stage the report (and the log) lists the trace and job IDs
// of the slowest completed arrivals, so a slow outlier resolves
// straight to its lifecycle timeline via GET /v2/jobs/{id}/trace.
//
// Usage:
//
//	thermload -target http://localhost:8090 [-stages 25,50,100]
//	          [-stage-duration 5s] [-kernels dot,saxpy,fir]
//	          [-timeout 30s] [-auth-token TOK] [-out BENCH_LOAD.json]
//	          [-tenants name:token[:prio[:weight]],...]
//	          [-unique]
//
// Each stage offers its rate (requests/second) for -stage-duration,
// cycling job bodies over the kernel × policy matrix so
// traffic exercises both cold compiles and cache hits, exactly like
// the 99-job experiment sweep. When every stage is done the tool
// writes one JSON document (to -out, "-" for stdout) with, per stage:
// offered rate, requests sent/completed, achieved throughput, p50/p95/
// p99 latency, and error counts attributed to 429 (rate limited), 503
// (at capacity or shed), other 4xx, 5xx, and transport failures.
//
// Multi-tenant mode: -tenants drives several tenants through one open
// loop, each with its own bearer token, job priority and relative
// arrival weight ("high:tok-h:10:3,low:tok-l:0:1" offers 3/4 of
// arrivals as high). The report then carries a per-tenant block per
// stage — sent, completed, p50/p99 and error attribution — which is
// what shows whether shedding lands on the right tenant. -unique salts
// every request body so no two arrivals share a job ID — genuine queue
// pressure rather than cache hits.
//
// thermload is an operator tool for exploring a deployment's latency
// envelope; the regression gate on serving latency is thermbench's
// serve-mixed workload (bench/README.md).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermflow/internal/server"
	"thermflow/internal/trace"
)

// spec is one request body template in the cycled workload matrix.
type spec struct {
	Kernel  string         `json:"kernel"`
	Options map[string]any `json:"options,omitempty"`
	// Priority is the job's scheduling hint.
	Priority int `json:"priority,omitempty"`
}

// stageResult is the per-stage block of the BENCH_LOAD.json document.
type stageResult struct {
	OfferedRPS   float64 `json:"offered_rps"`
	DurationSecs float64 `json:"duration_s"`
	Sent         int     `json:"sent"`
	Completed    int     `json:"completed"`
	AchievedRPS  float64 `json:"achieved_rps"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
	Errors       errs    `json:"errors"`
	// Tenants breaks the stage down by tenant name (multi-tenant runs
	// only): who was served and who was shed.
	Tenants map[string]*tenantResult `json:"tenants,omitempty"`
	// Slowest lists the stage's slowest completed requests, worst
	// first, each with the trace ID the request was sent under — the
	// handle that joins a latency outlier to its server-side timeline.
	Slowest []slowRequest `json:"slowest,omitempty"`
}

// slowRequest identifies one slow-outlier arrival; its job resolves
// directly to a timeline at GET /v2/jobs/{job_id}/trace.
type slowRequest struct {
	TraceID   string  `json:"trace_id"`
	JobID     string  `json:"job_id,omitempty"`
	Tenant    string  `json:"tenant,omitempty"`
	LatencyMs float64 `json:"latency_ms"`
}

// slowestN bounds the per-stage slow-outlier list.
const slowestN = 5

// tenantResult is one tenant's share of a stage.
type tenantResult struct {
	Sent      int     `json:"sent"`
	Completed int     `json:"completed"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`
	Errors    errs    `json:"errors"`
}

// errs attributes failures: rate-limit rejections and capacity
// shedding are the serving plane working as designed; 5xx and
// transport failures are faults.
type errs struct {
	RateLimited int `json:"429"`
	Capacity    int `json:"503"`
	Client4xx   int `json:"other_4xx"`
	Server5xx   int `json:"5xx"`
	Transport   int `json:"transport"`
}

type report struct {
	Target        string        `json:"target"`
	GOMAXPROCS    int           `json:"gomaxprocs"`
	NumCPU        int           `json:"num_cpu"`
	StageDuration float64       `json:"stage_duration_s"`
	Kernels       []string      `json:"kernels"`
	Tenants       []string      `json:"tenants,omitempty"`
	Stages        []stageResult `json:"stages"`
}

// tenantSpec is one -tenants entry: a name, its bearer token, the
// priority its submits carry, and its relative share of arrivals.
type tenantSpec struct {
	name   string
	token  string
	prio   int
	weight int
}

// loadConfig carries everything one stage needs.
type loadConfig struct {
	client  *http.Client
	target  string
	unique  bool
	specs   []spec
	tenants []tenantSpec
	picker  []int // arrival i draws tenants[picker[i%len]]
	timeout time.Duration
	salt    *atomic.Int64 // process-unique body salt for -unique
}

func main() {
	target := flag.String("target", "", "base URL of the thermflowd or thermflowgate to load (required)")
	stages := flag.String("stages", "25,50,100", "comma-separated offered arrival rates in req/s, one stage each")
	stageDur := flag.Duration("stage-duration", 5*time.Second, "how long each stage offers its rate")
	kernels := flag.String("kernels", "dot,saxpy,fir,matmul", "comma-separated kernels to cycle through")
	timeout := flag.Duration("timeout", 30*time.Second, "per-arrival timeout, submit through terminal state")
	authToken := flag.String("auth-token", "", "bearer token sent with every request (empty = none; ignored with -tenants)")
	tenantsFlag := flag.String("tenants", "", "comma-separated name:token[:priority[:weight]] tenants to interleave (empty = single anonymous client)")
	unique := flag.Bool("unique", false, "salt every request body so no two arrivals share a job ID")
	out := flag.String("out", "BENCH_LOAD.json", "output path for the JSON report (\"-\" = stdout)")
	flag.Parse()

	if *target == "" {
		log.Fatal("thermload: -target is required")
	}
	rates, err := parseRates(*stages)
	if err != nil {
		log.Fatalf("thermload: %v", err)
	}
	names := splitList(*kernels)
	if len(names) == 0 {
		log.Fatal("thermload: -kernels must name at least one kernel")
	}
	tenants, err := parseTenants(*tenantsFlag)
	if err != nil {
		log.Fatalf("thermload: %v", err)
	}
	if len(tenants) == 0 {
		tenants = []tenantSpec{{token: *authToken, weight: 1}}
	}

	cfg := loadConfig{
		client:  &http.Client{Timeout: *timeout},
		target:  strings.TrimRight(*target, "/"),
		unique:  *unique,
		specs:   buildMatrix(names),
		tenants: tenants,
		picker:  buildPicker(tenants),
		timeout: *timeout,
		salt:    &atomic.Int64{},
	}
	rep := report{
		Target:        cfg.target,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		StageDuration: stageDur.Seconds(),
		Kernels:       names,
	}
	for _, tn := range tenants {
		if tn.name != "" {
			rep.Tenants = append(rep.Tenants, tn.name)
		}
	}

	for _, rate := range rates {
		log.Printf("thermload: stage %.4g req/s for %s against %s", rate, *stageDur, cfg.target)
		res := runStage(cfg, rate, *stageDur)
		log.Printf("thermload: stage %.4g req/s: sent=%d completed=%d achieved=%.4g req/s p50=%.3gms p95=%.3gms p99=%.3gms err={429:%d 503:%d 4xx:%d 5xx:%d transport:%d}",
			rate, res.Sent, res.Completed, res.AchievedRPS, res.P50Ms, res.P95Ms, res.P99Ms,
			res.Errors.RateLimited, res.Errors.Capacity, res.Errors.Client4xx,
			res.Errors.Server5xx, res.Errors.Transport)
		for _, sl := range res.Slowest {
			extra := " job=" + sl.JobID
			if sl.Tenant != "" {
				extra += " tenant=" + sl.Tenant
			}
			log.Printf("thermload:   slow %.4gms trace=%s%s", sl.LatencyMs, sl.TraceID, extra)
		}
		for _, name := range rep.Tenants {
			if tr := res.Tenants[name]; tr != nil {
				log.Printf("thermload:   tenant %s: sent=%d completed=%d p50=%.3gms p99=%.3gms err={429:%d 503:%d 4xx:%d 5xx:%d transport:%d}",
					name, tr.Sent, tr.Completed, tr.P50Ms, tr.P99Ms,
					tr.Errors.RateLimited, tr.Errors.Capacity, tr.Errors.Client4xx,
					tr.Errors.Server5xx, tr.Errors.Transport)
			}
		}
		rep.Stages = append(rep.Stages, res)
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("thermload: encoding report: %v", err)
	}
	doc = append(doc, '\n')
	if *out == "-" {
		_, _ = os.Stdout.Write(doc)
	} else if err := os.WriteFile(*out, doc, 0o644); err != nil {
		log.Fatalf("thermload: writing %s: %v", *out, err)
	} else {
		log.Printf("thermload: wrote %s", *out)
	}

}

// parseRates reads the -stages list.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, f := range splitList(s) {
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
			return nil, fmt.Errorf("invalid stage rate %q", f)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-stages must name at least one rate")
	}
	return rates, nil
}

// parseTenants reads the -tenants list: name:token[:priority[:weight]].
func parseTenants(s string) ([]tenantSpec, error) {
	var out []tenantSpec
	seen := map[string]bool{}
	for _, entry := range splitList(s) {
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 4 || parts[0] == "" {
			return nil, fmt.Errorf("invalid -tenants entry %q (want name:token[:priority[:weight]])", entry)
		}
		tn := tenantSpec{name: parts[0], token: parts[1], weight: 1}
		if seen[tn.name] {
			return nil, fmt.Errorf("duplicate tenant %q in -tenants", tn.name)
		}
		seen[tn.name] = true
		if len(parts) >= 3 && parts[2] != "" {
			p, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("tenant %s: invalid priority %q", tn.name, parts[2])
			}
			tn.prio = p
		}
		if len(parts) == 4 {
			w, err := strconv.Atoi(parts[3])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("tenant %s: invalid weight %q (want >= 1)", tn.name, parts[3])
			}
			tn.weight = w
		}
		out = append(out, tn)
	}
	return out, nil
}

// buildPicker flattens tenant weights into an arrival schedule: a
// tenant with weight w owns w of every sum(weights) slots, interleaved
// round-robin so no tenant bursts.
func buildPicker(tenants []tenantSpec) []int {
	var picker []int
	remaining := make([]int, len(tenants))
	for i, tn := range tenants {
		remaining[i] = tn.weight
	}
	for {
		done := true
		for i := range tenants {
			if remaining[i] > 0 {
				picker = append(picker, i)
				remaining[i]--
				done = false
			}
		}
		if done {
			return picker
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// buildMatrix is the kernel × policy request matrix — the same shape
// as the 99-job experiment sweep, so warm traffic hits the pool's
// cache the way real re-runs do.
func buildMatrix(kernels []string) []spec {
	policies := []string{"first-free", "random", "chessboard", "round-robin", "coldest", "spread-max"}
	var specs []spec
	for _, k := range kernels {
		for _, p := range policies {
			specs = append(specs, spec{Kernel: k, Options: map[string]any{"policy": p}})
		}
	}
	return specs
}

// body renders arrival i's request body for tenant tn. With -unique,
// each body carries a process-unique Delta salt so no two arrivals
// collapse onto one job ID — the queue sees every one of them.
func (cfg loadConfig) body(i int, tn tenantSpec) []byte {
	sp := cfg.specs[i%len(cfg.specs)]
	opts := make(map[string]any, len(sp.Options)+1)
	for k, v := range sp.Options {
		opts[k] = v
	}
	if cfg.unique {
		opts["Delta"] = 0.05 + float64(cfg.salt.Add(1))*1e-9
	}
	b, err := json.Marshal(spec{Kernel: sp.Kernel, Options: opts, Priority: tn.prio})
	if err != nil {
		log.Fatalf("thermload: encoding spec: %v", err)
	}
	return b
}

// outcome is one request's classification.
type outcome struct {
	tenant  string
	traceID string // the trace the request was offered under
	jobID   string // the job the submit resolved to ("" if it never did)
	latency time.Duration
	status  int  // 0 on transport failure
	ok      bool // 2xx submit that reached state done
}

// runStage offers rate req/s for dur: the arrival ticker fires on
// schedule no matter how many requests are outstanding (open loop),
// then the stage waits for its stragglers so percentiles cover every
// arrival it generated. Arrivals interleave tenants by weight.
func runStage(cfg loadConfig, rate float64, dur time.Duration) stageResult {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(dur)
	defer deadline.Stop()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var outcomes []outcome

	sent := 0
	sentBy := map[string]int{}
	start := time.Now()
launch:
	for {
		select {
		case <-deadline.C:
			break launch
		case <-ticker.C:
			tn := cfg.tenants[cfg.picker[sent%len(cfg.picker)]]
			body := cfg.body(sent, tn)
			sent++
			sentBy[tn.name]++
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := cfg.oneRequest(tn, body)
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}()
		}
	}
	offered := time.Since(start)
	wg.Wait() // stragglers finish or hit the client timeout

	res := stageResult{
		OfferedRPS:   rate,
		DurationSecs: dur.Seconds(),
		Sent:         sent,
	}
	multi := len(cfg.tenants) > 1 || cfg.tenants[0].name != ""
	if multi {
		res.Tenants = make(map[string]*tenantResult, len(cfg.tenants))
		for _, tn := range cfg.tenants {
			if tn.name != "" {
				res.Tenants[tn.name] = &tenantResult{Sent: sentBy[tn.name]}
			}
		}
	}
	var lat []float64
	latBy := map[string][]float64{}
	for _, o := range outcomes {
		e := &res.Errors
		tr := res.Tenants[o.tenant] // nil for unnamed
		if tr != nil {
			e = &tr.Errors // counted below into the stage too
		}
		switch {
		case o.ok:
			res.Completed++
			ms := float64(o.latency) / float64(time.Millisecond)
			lat = append(lat, ms)
			if tr != nil {
				tr.Completed++
				latBy[o.tenant] = append(latBy[o.tenant], ms)
			}
			continue
		case o.status == http.StatusTooManyRequests:
			e.RateLimited++
		case o.status == http.StatusServiceUnavailable:
			e.Capacity++
		case o.status >= 500:
			e.Server5xx++
		case o.status >= 400:
			e.Client4xx++
		default:
			e.Transport++
		}
		if tr != nil { // roll the tenant's error up into the stage total
			res.Errors = addErrs(res.Errors, classifyOne(o))
		}
	}
	if offered > 0 {
		res.AchievedRPS = round3(float64(res.Completed) / offered.Seconds())
	}
	sort.Float64s(lat)
	res.P50Ms = round3(percentile(lat, 0.50))
	res.P95Ms = round3(percentile(lat, 0.95))
	res.P99Ms = round3(percentile(lat, 0.99))
	if n := len(lat); n > 0 {
		res.MaxMs = round3(lat[n-1])
	}
	for name, tl := range latBy {
		sort.Float64s(tl)
		tr := res.Tenants[name]
		tr.P50Ms = round3(percentile(tl, 0.50))
		tr.P99Ms = round3(percentile(tl, 0.99))
		tr.MaxMs = round3(tl[len(tl)-1])
	}
	// The slow-outlier list: worst completed arrivals first, each with
	// the trace and job IDs that resolve it server-side.
	slow := make([]outcome, 0, res.Completed)
	for _, o := range outcomes {
		if o.ok && o.traceID != "" {
			slow = append(slow, o)
		}
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].latency > slow[j].latency })
	if len(slow) > slowestN {
		slow = slow[:slowestN]
	}
	for _, o := range slow {
		res.Slowest = append(res.Slowest, slowRequest{
			TraceID: o.traceID, JobID: o.jobID, Tenant: o.tenant,
			LatencyMs: round3(float64(o.latency) / float64(time.Millisecond)),
		})
	}
	return res
}

// classifyOne maps one failed outcome onto an errs increment.
func classifyOne(o outcome) errs {
	switch {
	case o.ok:
		return errs{}
	case o.status == http.StatusTooManyRequests:
		return errs{RateLimited: 1}
	case o.status == http.StatusServiceUnavailable:
		return errs{Capacity: 1}
	case o.status >= 500:
		return errs{Server5xx: 1}
	case o.status >= 400:
		return errs{Client4xx: 1}
	default:
		return errs{Transport: 1}
	}
}

func addErrs(a, b errs) errs {
	a.RateLimited += b.RateLimited
	a.Capacity += b.Capacity
	a.Client4xx += b.Client4xx
	a.Server5xx += b.Server5xx
	a.Transport += b.Transport
	return a
}

// oneRequest submits one job and long-polls it to a terminal state;
// latency covers submit through terminal. Classification attributes
// the serving plane's verdicts: a 429 submit is the tenant's own quota,
// a 503 submit is pool admission, and a job that terminally failed
// because the queue shed it also counts as 503 — the shed happened
// after admission, but it is the same "pool was saturated" signal. A
// job still live when the timeout expires counts as 503 too: the pool
// did not serve it in time.
func (cfg loadConfig) oneRequest(tn tenantSpec, body []byte) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	sc := trace.New()
	start := time.Now()
	jobID := ""
	fail := func(status int) outcome {
		return outcome{tenant: tn.name, traceID: sc.TraceID, jobID: jobID,
			latency: time.Since(start), status: status}
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.target+"/v2/jobs", bytes.NewReader(body))
	if err != nil {
		return outcome{tenant: tn.name, traceID: sc.TraceID}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.TraceHeader, sc.Header())
	if tn.token != "" {
		req.Header.Set("Authorization", "Bearer "+tn.token)
	}
	resp, err := cfg.client.Do(req)
	if err != nil {
		return fail(0)
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fail(resp.StatusCode)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error,omitempty"`
	}
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		return fail(0)
	}
	jobID = st.ID

	for {
		switch st.State {
		case "done":
			return outcome{tenant: tn.name, traceID: sc.TraceID, jobID: jobID,
				latency: time.Since(start), status: resp.StatusCode, ok: true}
		case "failed":
			if strings.Contains(st.Error, "shed") {
				return fail(http.StatusServiceUnavailable)
			}
			return fail(http.StatusUnprocessableEntity)
		case "expired":
			return fail(http.StatusGatewayTimeout)
		}
		remaining := time.Until(start.Add(cfg.timeout))
		if remaining <= 0 {
			return fail(http.StatusServiceUnavailable) // never served in time
		}
		waitMS := remaining.Milliseconds()
		if waitMS > 10_000 {
			waitMS = 10_000
		}
		wreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v2/jobs/%s/wait?timeout_ms=%d", cfg.target, st.ID, waitMS), nil)
		if err != nil {
			return fail(0)
		}
		wreq.Header.Set(server.TraceHeader, sc.Header())
		if tn.token != "" {
			wreq.Header.Set("Authorization", "Bearer "+tn.token)
		}
		wresp, err := cfg.client.Do(wreq)
		if err != nil {
			return fail(0)
		}
		wdata, _ := io.ReadAll(io.LimitReader(wresp.Body, 1<<20))
		wresp.Body.Close()
		// 504 carries the expired JobStatus; other non-2xx are errors.
		if wresp.StatusCode/100 != 2 && wresp.StatusCode != http.StatusGatewayTimeout {
			return fail(wresp.StatusCode)
		}
		if err := json.Unmarshal(wdata, &st); err != nil {
			return fail(0)
		}
	}
}

// percentile reads the p-quantile from an ASCENDING-sorted slice
// (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
