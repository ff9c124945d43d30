package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Input-set sizes of the generated library workloads: spill programs,
// and mega-modules (each compiled under every policy). They are sized so
// that the latency median and p99 of one seed's set sit within a few
// percent of another seed's.
const (
	spillCount = 1500
	megaCount  = 64
)

// libraryWorkloads builds each library workload's inputs from a seed.
var libraryWorkloads = map[string]func(seed int64) ([]input, error){
	"kernel-sweep":   kernelSweepInputs,
	"spill-pressure": func(seed int64) ([]input, error) { return spillInputs(seed, spillCount) },
	"mega-cold":      func(seed int64) ([]input, error) { return megaInputs(seed, megaCount) },
}

// A run sets up at least minSetups times and until setupBudget has been
// spent, at most maxSetups times; setup_s is the median, so one slow
// set-up does not move it and a short one is measured often enough to
// be steady.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = time.Second
)

// repeatSetup runs once as often as the rules above say and returns the
// median of its durations in seconds.
func repeatSetup(once func() error) (float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < minSetups || (len(times) < maxSetups && time.Since(start) < setupBudget) {
		t0 := time.Now()
		if err := once(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// runEnv is what one workload run needs to know about its invocation.
type runEnv struct {
	root    string // repository root
	bin     string // directory holding thermflowd and thermflowgate
	out     string // per-seed output directory
	seed    int64
	seconds float64
	trace   bool
	workers int
	// minSamples is the fewest compiles a library window measures
	// (minSamples in a real run; tests lower it).
	minSamples int
}

// runLibrary runs one library workload: set-up (input generation and
// admission) repeated by repeatSetup, then either the timed pass or
// the per-layer pass.
func runLibrary(ctx context.Context, env runEnv, name string, build func(int64) ([]input, error)) (*runResult, error) {
	var inputs []input
	setup, err := repeatSetup(func() error {
		ins, err := build(env.seed)
		if err != nil {
			return fmt.Errorf("%s: generating inputs: %w", name, err)
		}
		if inputs != nil && !sameIDs(inputs, ins) {
			return fmt.Errorf("%s: seed %d generated two different input sets", name, env.seed)
		}
		inputs = ins
		return nil
	})
	if err != nil {
		return nil, err
	}
	ref, err := loadReference(env.root, env.seed)
	if err != nil {
		return nil, err
	}
	or := &oracle{ref: ref}
	inputs = shuffled(inputs, env.seed)
	runtime.GC()
	resetPeakRSS()

	res := &runResult{Workload: name, Trace: env.trace}
	if env.trace {
		rec := newSpanRecorder()
		m, attempted, failed, err := layerPass(ctx, env, name, inputs, or, rec)
		if err != nil {
			return nil, err
		}
		m["trace.dropped_spans"] = float64(rec.Dropped())
		if err := rec.write(tracePath(env, name)); err != nil {
			return nil, err
		}
		res.Metrics, res.Attempted, res.Failed = m, attempted, failed
		res.Samples = attempted
	} else {
		tp := timedPass(ctx, inputs, env.seconds, env.workers, env.minSamples, or)
		res.Attempted, res.Failed, res.Samples = tp.attempted, tp.failed, len(tp.latMS)
		res.Metrics = latencyMetrics(tp.latMS)
		res.Metrics["throughput_per_s"] = float64(len(tp.latMS)) / tp.elapsed.Seconds()
		res.Metrics["peak_rss_mb"] = peakRSSMB(os.Getpid())
		or.checkResiduals(inputs)
	}
	res.Metrics["setup_s"] = setup
	finish(res, or)
	return res, nil
}

// finish fills the fields every workload reports the same way.
func finish(res *runResult, or *oracle) {
	res.WrongResults = or.wrongCount()
	res.InvariantFailures = or.invariants.Load()
	res.Correct = or.correct() && or.checked.Load() > 0
	if res.Attempted > 0 {
		res.Metrics["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	}
}

func sameIDs(a, b []input) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

func latencyMetrics(latMS []float64) map[string]float64 {
	s := sortedCopy(latMS)
	return map[string]float64{
		"latency_p50_ms": percentile(s, 0.50),
		"latency_p99_ms": percentile(s, 0.99),
	}
}

// shuffled returns the inputs in a seeded order, so a pass that stops
// part-way through the set has covered a uniform sample of it.
func shuffled(inputs []input, seed int64) []input {
	rng := rand.New(rand.NewSource(genSeed(seed, streamOrder, 0, 0)))
	out := make([]input, len(inputs))
	for i, j := range rng.Perm(len(inputs)) {
		out[i] = inputs[j]
	}
	return out
}

// warmupInputs is how many inputs one untimed compile each warms the
// process with (heap growth, page faults, lazily built tables) before
// measuring.
const warmupInputs = 64

// minSamples is the fewest compiles a timed window measures, so p99 has
// at least ten samples beyond it even on a slow host.
const minSamples = 1000

// passScheduler hands out input indices pass after pass until the
// measurement window has closed and at least min compiles have run,
// always finishing the pass in progress: every input is compiled the
// same number of times, so the latency quantiles weigh the inputs alike
// on every run and commit.
type passScheduler struct {
	mu           sync.Mutex
	n, next, min int
	deadline     time.Time
	done         bool
}

func (s *passScheduler) take() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done || (s.next > 0 && s.next >= s.min && s.next%s.n == 0 && !time.Now().Before(s.deadline)) {
		s.done = true
		return 0, false
	}
	s.next++
	return (s.next - 1) % s.n, true
}

type timedResult struct {
	latMS             []float64
	attempted, failed int
	elapsed           time.Duration
}

// timedPass is the closed-loop measurement: workers goroutines compile
// the inputs pass after pass for the window, each compile timed alone.
// Every result is checked by the oracle outside the timed call.
func timedPass(ctx context.Context, inputs []input, seconds float64, workers, minCompiles int, or *oracle) timedResult {
	forEachInput(ctx, inputs[:min(warmupInputs, len(inputs))], workers, func(_ int, in *input) {
		_, _ = in.Prog.CompileContext(ctx, in.Opts)
	})

	sched := &passScheduler{n: len(inputs), min: minCompiles}
	start := time.Now()
	sched.deadline = start.Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	var out timedResult
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			attempted, failed := 0, 0
			for ctx.Err() == nil {
				i, ok := sched.take()
				if !ok {
					break
				}
				in := &inputs[i]
				t0 := time.Now()
				c, err := in.Prog.CompileContext(ctx, in.Opts)
				d := time.Since(t0)
				attempted++
				if err != nil {
					failed++
					continue
				}
				lat = append(lat, msOf(d))
				or.check(in, resultOf(c), c.Tech().TAmbient)
			}
			mu.Lock()
			out.latMS = append(out.latMS, lat...)
			out.attempted += attempted
			out.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// forEachInput runs f once per input on workers goroutines.
func forEachInput(ctx context.Context, inputs []input, workers int, f func(i int, in *input)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i, &inputs[i])
			}
		}()
	}
	for i := range inputs {
		if ctx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS restarts this process's peak-resident-set count, so
// peak_rss_mb covers the compiles and not the discarded set-up repeats.
// Kernels without the reset keep the whole-process peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB; 0 when
// /proc is unavailable.
func peakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
