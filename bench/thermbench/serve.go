package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"thermflow/api"
	"thermflow/internal/power"
	"thermflow/internal/server"
	"thermflow/internal/trace"
)

// The serve-mixed workload drives a real thermflowgate in front of two
// thermflowd backends, open loop over the v2 job API.
const (
	// serveRate is the steady phase's arrival rate (req/s), calibrated
	// so the p99 stays under half the SLO on a 2-cpu host.
	serveRate = 150
	// hotShare of arrivals repeat the hot set; the rest are fresh
	// programs never sent before in the run.
	hotShare = 0.8
	// serveTimeout bounds one arrival, submit through terminal state.
	serveTimeout = 10 * time.Second
	// sampledResults served results are re-compiled locally after the
	// run and must match bit for bit.
	sampledResults = 200
	// maxTraceFetch bounds the job timelines fetched in a traced run.
	maxTraceFetch = 400
	// capacityJobs is the fixed work of the closed-loop phase that
	// follows the steady window and measures throughput_per_s.
	capacityJobs = 3000
)

// daemon is one started thermflowd or thermflowgate process.
type daemon struct {
	url    string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
	log    *os.File
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startDaemon(bin, name, dir string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{url: "http://" + addr, cmd: cmd, exited: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// stop asks the process to shut down, kills it if it has not exited
// within a few seconds, and returns once it is reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// cluster is a gateway in front of two backends, each backend with its
// own disk cache directory.
type cluster struct {
	gateway  *daemon
	backends []*daemon
}

func startCluster(ctx context.Context, hc *http.Client, bin, dir string) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{}
	var urls []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(filepath.Join(bin, "thermflowd"), fmt.Sprintf("backend%d", i), dir,
			"-cache-dir", filepath.Join(dir, fmt.Sprintf("cache%d", i)))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.backends = append(c.backends, d)
		urls = append(urls, d.url)
	}
	for _, d := range c.backends {
		if err := waitReady(ctx, hc, d, func(b []byte) bool { return true }, "/v2/stats"); err != nil {
			c.stop()
			return nil, err
		}
	}
	gw, err := startDaemon(filepath.Join(bin, "thermflowgate"), "gateway", dir, "-backends", strings.Join(urls, ","))
	if err != nil {
		c.stop()
		return nil, err
	}
	c.gateway = gw
	onRing := func(b []byte) bool {
		var v api.GatewayBackendsResponse
		return json.Unmarshal(b, &v) == nil && v.RingBackends == len(urls)
	}
	if err := waitReady(ctx, hc, gw, onRing, "/gateway/backends"); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// waitReady polls path on d until it answers 200 with a body ok
// accepts.
func waitReady(ctx context.Context, hc *http.Client, d *daemon, ok func([]byte) bool, path string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(d.url + path)
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && ok(b) {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before it was ready (see its log in %s)", d.url, d.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s", d.url)
		}
	}
}

func (c *cluster) daemons() []*daemon {
	out := append([]*daemon(nil), c.backends...)
	if c.gateway != nil {
		out = append(out, c.gateway)
	}
	return out
}

// peakRSSMB sums the daemons' peak resident sets; call it before stop.
func (c *cluster) peakRSSMB() float64 {
	sum := 0.0
	for _, d := range c.daemons() {
		sum += peakRSSMB(d.cmd.Process.Pid)
	}
	return sum
}

func (c *cluster) stop() {
	if c.gateway != nil {
		c.gateway.stop()
	}
	for _, d := range c.backends {
		d.stop()
	}
}

// jobClient submits jobs over v2 and waits for their terminal state.
type jobClient struct {
	hc   *http.Client
	base string
}

// newHTTPClient allows at most conns connections to each host.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute,
	}}
}

// jobBody is the v2 submit body for an input.
func jobBody(in *input) ([]byte, error) {
	return json.Marshal(api.JobRequest{Program: in.Spec.Source, Options: in.Opts})
}

// run submits body and long-polls the job to a terminal state, without
// retries. traceHeader, when set, joins every request to one trace.
func (jc *jobClient) run(ctx context.Context, body []byte, traceHeader string) (outcome, *api.JobStatus) {
	ctx, cancel := context.WithTimeout(ctx, serveTimeout)
	defer cancel()
	o := outcome{}
	do := func(method, url string, body []byte) (int, []byte, error) {
		o.Requests++
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if traceHeader != "" {
			req.Header.Set(server.TraceHeader, traceHeader)
		}
		resp, err := jc.hc.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		return resp.StatusCode, b, err
	}
	status, b, err := do(http.MethodPost, jc.base+"/v2/jobs", body)
	for {
		if err != nil {
			o.Status = 0
			return o, nil
		}
		if status/100 != 2 && status != http.StatusGatewayTimeout {
			o.Status = status
			return o, nil
		}
		var st api.JobStatus
		if json.Unmarshal(b, &st) != nil || st.ID == "" {
			o.Status = 0
			return o, nil
		}
		switch st.State {
		case "done":
			if st.Result == nil {
				o.Status = http.StatusInternalServerError
				return o, &st
			}
			o.OK = true
			return o, &st
		case "failed":
			o.Status = http.StatusUnprocessableEntity
			if strings.Contains(st.Error, "shed") {
				o.Status = http.StatusServiceUnavailable
			}
			return o, &st
		case "expired":
			o.Status = http.StatusGatewayTimeout
			return o, &st
		}
		status, b, err = do(http.MethodGet, fmt.Sprintf("%s/v2/jobs/%s/wait?timeout_ms=%d", jc.base, st.ID, serveTimeout.Milliseconds()), nil)
	}
}

// serveMix decides each arrival of a window: an index into the hot set,
// or -1 for the next fresh program.
func serveMix(seed int64, stream, n int) []int {
	rng := rand.New(rand.NewSource(genSeed(seed, stream, 0, 0)))
	mix := make([]int, n)
	for i := range mix {
		mix[i] = -1
		if rng.Float64() < hotShare {
			mix[i] = rng.Intn(hotSetSize)
		}
	}
	return mix
}

func countFresh(mix []int) int {
	n := 0
	for _, m := range mix {
		if m < 0 {
			n++
		}
	}
	return n
}

// Mix streams for serveMix: the steady phase and the capacity phase.
const (
	mixSteady   = 100
	mixCapacity = 200
)

// serveInputs is the served input set: the hot set, then every fresh
// program, with their submit bodies pre-encoded so the timed window
// does no encoding.
type serveInputs struct {
	hot, fresh           []input
	hotBodies, freshBody [][]byte
}

func newServeInputs(seed int64, nFresh int) (*serveInputs, error) {
	hot, err := hotSetInputs(seed)
	if err != nil {
		return nil, err
	}
	fresh, err := freshInputs(seed, nFresh)
	if err != nil {
		return nil, err
	}
	si := &serveInputs{hot: hot, fresh: fresh}
	for i := range hot {
		b, err := jobBody(&hot[i])
		if err != nil {
			return nil, err
		}
		si.hotBodies = append(si.hotBodies, b)
	}
	for i := range fresh {
		b, err := jobBody(&fresh[i])
		if err != nil {
			return nil, err
		}
		si.freshBody = append(si.freshBody, b)
	}
	return si, nil
}

// window is one open-loop phase's arrivals mapped onto inputs.
type window struct {
	in     []*input
	body   [][]byte
	result []*api.CompileResponse // kept for sampled arrivals only
	jobID  []string
	trace  []string // trace ID of traced arrivals
}

// newWindow lays the mix over the inputs, taking fresh programs from
// *nextFresh onwards.
func (si *serveInputs) newWindow(mix []int, nextFresh *int) *window {
	w := &window{
		in: make([]*input, len(mix)), body: make([][]byte, len(mix)),
		result: make([]*api.CompileResponse, len(mix)), jobID: make([]string, len(mix)), trace: make([]string, len(mix)),
	}
	for i, m := range mix {
		if m < 0 && *nextFresh < len(si.fresh) {
			w.in[i], w.body[i] = &si.fresh[*nextFresh], si.freshBody[*nextFresh]
			*nextFresh++
			continue
		}
		if m < 0 {
			m = i % hotSetSize
		}
		w.in[i], w.body[i] = &si.hot[m], si.hotBodies[m]
	}
	return w
}

// arrive runs arrival i of a window and checks its result.
func (w *window) arrive(ctx context.Context, jc *jobClient, or *oracle, i int, traced, keep bool) outcome {
	hdr := ""
	if traced {
		sc := trace.New()
		hdr, w.trace[i] = sc.Header(), sc.TraceID
	}
	o, st := jc.run(ctx, w.body[i], hdr)
	if st != nil {
		w.jobID[i] = st.ID
	}
	if o.OK {
		r := result{PeakTemp: st.Result.PeakTemp, RegPeak: st.Result.RegPeak, Converged: st.Result.Converged}
		or.check(w.in[i], r, servedAmbient)
		if keep {
			w.result[i] = st.Result
		}
	}
	return o
}

// servedAmbient is the heat-sink temperature of every served spec
// (none overrides the technology).
var servedAmbient = power.Default65nm().TAmbient

// warmHotSet submits every hot spec and waits for all to finish.
func warmHotSet(ctx context.Context, jc *jobClient, si *serveInputs, workers int) error {
	var failed atomic.Int64
	forEachInput(ctx, si.hot, workers, func(i int, in *input) {
		if o, _ := jc.run(ctx, si.hotBodies[i], ""); !o.OK {
			failed.Add(1)
		}
	})
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("warming the hot set: %d of %d jobs failed", n, len(si.hot))
	}
	return ctx.Err()
}

// runServe runs the serve-mixed workload.
func runServe(ctx context.Context, env runEnv) (*runResult, error) {
	n := int(serveRate * env.seconds)
	steadyMix := serveMix(env.seed, mixSteady, n)
	needFresh := countFresh(steadyMix)
	var capacityMix []int
	if !env.trace {
		capacityMix = serveMix(env.seed, mixCapacity, capacityJobs)
		needFresh += countFresh(capacityMix)
	}
	si, err := newServeInputs(env.seed, needFresh)
	if err != nil {
		return nil, err
	}
	ref, err := loadReference(env.root, env.seed)
	if err != nil {
		return nil, err
	}
	or := &oracle{ref: ref}
	hc := newHTTPClient(env.workers)
	defer hc.CloseIdleConnections()

	// Each set-up starts a fresh cluster over fresh cache directories; the
	// last one serves the measured window.
	var cl *cluster
	var dirs []string
	defer func() {
		if cl != nil {
			cl.stop()
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	setup, err := repeatSetup(func() error {
		if cl != nil {
			cl.stop()
			cl = nil
		}
		dir := filepath.Join(env.out, fmt.Sprintf("serve-%d-%d", os.Getpid(), len(dirs)))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		dirs = append(dirs, dir)
		var err error
		if cl, err = startCluster(ctx, hc, env.bin, dir); err != nil {
			return err
		}
		return warmHotSet(ctx, &jobClient{hc: hc, base: cl.gateway.url}, si, env.workers)
	})
	if err != nil {
		return nil, err
	}
	jc := &jobClient{hc: hc, base: cl.gateway.url}

	var before map[string]float64
	if env.trace {
		if before, err = scrapeCluster(hc, cl); err != nil {
			return nil, err
		}
	}
	nextFresh := 0
	w := si.newWindow(steadyMix, &nextFresh)
	keep := sampleSet(env.seed, n)
	arrs := openLoop(ctx, realClock{}, serveRate, n, env.workers, func(ctx context.Context, i int) outcome {
		return w.arrive(ctx, jc, or, i, env.trace && i%2 == 0, keep[i])
	})
	st := account(arrs)

	res := &runResult{Workload: "serve-mixed", Trace: env.trace, Attempted: st.Attempted, Failed: st.failed(), Samples: st.Completed}
	res.Metrics = serveClientMetrics(st)
	res.Metrics["setup_s"] = setup

	if env.trace {
		after, err := scrapeCluster(hc, cl)
		if err != nil {
			return nil, err
		}
		rec := newSpanRecorder()
		recordArrivals(rec, w, arrs)
		layers, err := fetchServeLayers(hc, cl.gateway.url, w, arrs)
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			res.Metrics[k] = v
		}
		for k, v := range metricDeltas(before, after) {
			res.Metrics[k] = v
		}
		cl.stop()
		cl = nil

		// The library layers on every distinct served input.
		distinct := shuffled(append(append([]input(nil), si.hot...), si.fresh[:nextFresh]...), env.seed)
		m, attempted, failed, err := layerPass(ctx, env, "serve-mixed", distinct, or, rec)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			if k != "trace.overhead_ratio" {
				res.Metrics[k] = v
			}
		}
		res.Attempted += attempted
		res.Failed += failed
		res.Metrics["trace.dropped_spans"] = float64(rec.Dropped())
		if err := rec.write(tracePath(env, "serve-mixed")); err != nil {
			return nil, err
		}
	} else {
		for k, v := range latencyMetrics(st.LatMS) {
			res.Metrics[k] = v
		}
		// The steady window's throughput is its offered rate; capacity is
		// measured closed loop, on the same mix of hot and fresh jobs.
		cw := si.newWindow(capacityMix, &nextFresh)
		cst := account(closedLoop(ctx, realClock{}, len(capacityMix), env.workers, func(ctx context.Context, i int) outcome {
			return cw.arrive(ctx, jc, or, i, false, false)
		}))
		res.Attempted += cst.Attempted
		res.Failed += cst.failed()
		res.Metrics["throughput_per_s"] = float64(cst.Completed) / cst.Elapsed.Seconds()
		res.Metrics["peak_rss_mb"] = cl.peakRSSMB()
		or.checkResiduals(append(append([]input(nil), si.hot...), si.fresh[:nextFresh]...))
	}

	// Outside the timed window: sampled served results must equal a
	// local compile of the same spec, bit for bit.
	for i, r := range w.result {
		if r != nil && !sameAsLocal(w.in[i], r) {
			or.wrong.Add(1)
		}
	}
	finish(res, or)
	return res, nil
}

// sampleSet marks the arrivals whose results are re-checked locally.
func sampleSet(seed int64, n int) []bool {
	keep := make([]bool, n)
	rng := rand.New(rand.NewSource(genSeed(seed, mixSteady, 1, 0)))
	perm := rng.Perm(n)
	if len(perm) > sampledResults {
		perm = perm[:sampledResults]
	}
	for _, i := range perm {
		keep[i] = true
	}
	return keep
}

// sameAsLocal compiles in locally and compares the wire form of the
// result with the served one, byte for byte (the cache flag aside).
func sameAsLocal(in *input, served *api.CompileResponse) bool {
	c, err := in.Prog.Compile(in.Opts)
	if err != nil {
		return false
	}
	want, err1 := json.Marshal(api.ResponseFor(c, false))
	s := *served
	s.Cached = false
	got, err2 := json.Marshal(&s)
	return err1 == nil && err2 == nil && bytes.Equal(want, got)
}

// serveClientMetrics is the client-side accounting of a window.
func serveClientMetrics(st loopStats) map[string]float64 {
	m := map[string]float64{
		"http.refused_429":        float64(st.Refused429),
		"http.refused_503":        float64(st.Refused503),
		"http.5xx":                float64(st.Server5xx),
		"http.transport":          float64(st.Transport),
		"client.late_ms_p99":      percentile(sortedCopy(st.LateMS), 0.99),
		"client.conn_wait_ms_p99": percentile(sortedCopy(st.ConnWaitMS), 0.99),
	}
	if st.Attempted > 0 {
		m["client.requests_per_job"] = float64(st.Requests) / float64(st.Attempted)
	}
	return m
}

// recordArrivals writes the bench's own span for every traced arrival:
// the arrival from due time to completion, with the connection wait
// and the request as children.
func recordArrivals(rec *spanRecorder, w *window, arrs []arrival) {
	for i, a := range arrs {
		tid := w.trace[i]
		if tid == "" {
			continue
		}
		root := rec.record("arrival", tid, 0, a.Due, a.latency())
		rec.record("client.wait", tid, root, a.Due, a.late())
		rec.record("client.request", tid, root, a.Start, a.Done.Sub(a.Start))
	}
}

// fetchServeLayers reads the job timelines of traced arrivals and
// attributes each arrival's time to the serving layers by self time:
// a span's duration minus the part its children cover.
func fetchServeLayers(hc *http.Client, gateway string, w *window, arrs []arrival) (map[string]float64, error) {
	timelines := map[string]*api.TraceResponse{}
	var gwSelf, srvSelf, queued, runSelf, solve, traced, untraced []float64
	fetched := 0
	for i, a := range arrs {
		if !a.Outcome.OK {
			continue
		}
		if w.trace[i] == "" {
			untraced = append(untraced, msOf(a.latency()))
			continue
		}
		traced = append(traced, msOf(a.latency()))
		id := w.jobID[i]
		if fetched >= maxTraceFetch || id == "" {
			continue
		}
		tl, ok := timelines[id]
		if !ok {
			var err error
			if tl, err = fetchTimeline(hc, gateway, id); err != nil {
				return nil, err
			}
			timelines[id] = tl
		}
		fetched++
		var spans []api.TraceSpan
		for _, sp := range tl.Spans {
			if sp.TraceID == w.trace[i] {
				spans = append(spans, sp)
			}
		}
		for _, sp := range spans {
			self := msOf(selfTime(sp, spans))
			switch {
			case sp.Name == "http.server" && sp.Service == "thermflowgate":
				gwSelf = append(gwSelf, self)
			case sp.Name == "http.server":
				srvSelf = append(srvSelf, self)
			case sp.Name == "job.queued":
				queued = append(queued, msOf(time.Duration(sp.DurationUS)*time.Microsecond))
			case sp.Name == "job.run":
				runSelf = append(runSelf, self)
			case sp.Name == "job.solve":
				solve = append(solve, msOf(time.Duration(sp.DurationUS)*time.Microsecond))
			}
		}
	}
	dropped := 0
	for _, tl := range timelines {
		dropped += tl.Dropped
	}
	p := func(vs []float64, q float64) float64 { return percentile(sortedCopy(vs), q) }
	return map[string]float64{
		"gateway.self_ms_p50":           p(gwSelf, 0.5),
		"gateway.self_ms_p99":           p(gwSelf, 0.99),
		"server.self_ms_p50":            p(srvSelf, 0.5),
		"server.self_ms_p99":            p(srvSelf, 0.99),
		"jobs.queued_ms_p50":            p(queued, 0.5),
		"jobs.queued_ms_p99":            p(queued, 0.99),
		"jobs.run_self_ms_p50":          p(runSelf, 0.5),
		"jobs.solve_ms_p50":             p(solve, 0.5),
		"jobs.solve_ms_p99":             p(solve, 0.99),
		"server.timeline_dropped_spans": float64(dropped),
		"trace.overhead_ratio":          median(traced) / median(untraced),
		"trace.timelines_fetched":       float64(len(timelines)),
	}, nil
}

func fetchTimeline(hc *http.Client, gateway, jobID string) (*api.TraceResponse, error) {
	resp, err := hc.Get(gateway + "/v2/jobs/" + jobID + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace of job %s: HTTP %d", jobID, resp.StatusCode)
	}
	var tl api.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		return nil, fmt.Errorf("trace of job %s: %w", jobID, err)
	}
	return &tl, nil
}

// selfTime is sp's duration minus the union of its children's
// intervals, clipped to sp.
func selfTime(sp api.TraceSpan, spans []api.TraceSpan) time.Duration {
	start, end := sp.StartUS, sp.StartUS+sp.DurationUS
	type iv struct{ a, b int64 }
	var kids []iv
	for _, c := range spans {
		if c.ParentID != sp.SpanID || c.SpanID == sp.SpanID {
			continue
		}
		a, b := max(c.StartUS, start), min(c.StartUS+c.DurationUS, end)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	covered, curA, curB := int64(0), int64(0), int64(-1)
	for _, k := range kids {
		if k.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = k.a, k.b
		} else if k.b > curB {
			curB = k.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return time.Duration(sp.DurationUS-covered) * time.Microsecond
}

// scrapeCluster reads /metrics from every daemon, summing series of
// the same name and labels.
func scrapeCluster(hc *http.Client, c *cluster) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, d := range c.daemons() {
		m, err := scrape(hc, d.url+"/metrics")
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// scrape parses a Prometheus text exposition into series → value.
func scrape(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// series sums the values of metric name whose labels include every
// given name="value" pair.
func series(m map[string]float64, name string, labels ...string) float64 {
	sum := 0.0
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			sum += v
		}
	}
	return sum
}

// metricDeltas derives the cache and admission counters of a window
// from scrapes taken before and after it.
func metricDeltas(before, after map[string]float64) map[string]float64 {
	d := func(name string, labels ...string) float64 {
		return series(after, name, labels...) - series(before, name, labels...)
	}
	hits, misses := d("thermflow_cache_requests_total", `outcome="hit"`), d("thermflow_cache_requests_total", `outcome="miss"`)
	m := map[string]float64{
		"cache.mem_hits":    d("thermflow_cache_tier_events_total", `tier="memory"`, `event="hit"`),
		"cache.misses":      misses,
		"cache.disk_puts":   d("thermflow_cache_tier_events_total", `tier="disk"`, `event="put"`),
		"jobs.shed":         d("thermflow_jobs_shed_total"),
		"gateway.failovers": d("thermflow_gateway_failovers_total"),
	}
	if hits+misses > 0 {
		m["cache.hit_ratio"] = hits / (hits + misses)
	}
	return m
}

// checkBinaries fails early when the daemons were not built.
func checkBinaries(bin string) error {
	for _, name := range []string{"thermflowd", "thermflowgate"} {
		if _, err := os.Stat(filepath.Join(bin, name)); err != nil {
			return fmt.Errorf("-bin does not hold the daemons: %w", err)
		}
	}
	return nil
}
