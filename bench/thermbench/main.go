// Command thermbench is thermflow's benchmark: one command that runs
// seeded workloads through the library compile pipeline and through a
// real gateway in front of two backends, prints every end-to-end metric
// by name and unit, and checks every output against a correctness
// oracle. A separate -trace 1 run times each layer from outside and
// reports per-layer metrics instead.
//
// Usage (from the repository root, through the wrapper that builds the
// binaries):
//
//	bash bench/run.sh [-workload all|NAME[,NAME]] [-seed 1] [-seconds 15]
//	                  [-trace 0|1] [-runs 1] [-out FILE]
//	bash bench/run.sh -write-reference -seed N
//	bash bench/run.sh compare A.json B.json
//
// Each run of a workload is a fresh child process. The runs land in
// bench/out/<seed>/report.json (or -out), merged with the runs of other
// workloads and modes already there. When exactly one workload runs,
// the last line of standard output is a JSON object with the fields
// correct, attempted, failed and metrics: the medians over the runs of
// every end-to-end metric (or, with -trace 1, every per-layer metric)
// that BENCHMARK.json lists.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// workloadNames lists every workload in the order a full run takes them.
var workloadNames = []string{"kernel-sweep", "spill-pressure", "mega-cold", "serve-mixed"}

// defaultSeconds is the measurement window BENCHMARK.json's
// run_seconds records.
const defaultSeconds = 15

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	runs     int
	writeRef bool
	root     string
	bin      string
	out      string
	child    string
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workloads to run: all, or comma-separated names ("+strings.Join(workloadNames, ", ")+")")
	flag.Int64Var(&o.seed, "seed", 1, "input-generation seed")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measurement window of one run, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the per-layer pass instead of the timed one")
	flag.IntVar(&o.runs, "runs", 1, "runs of each workload; the report records each metric's spread across them")
	flag.BoolVar(&o.writeRef, "write-reference", false, "compile every reference input with this code and write bench/testdata/reference-seed<seed>.json.gz")
	flag.StringVar(&o.root, "root", "", "repository root (default: the nearest directory above the working directory holding BENCHMARK.json)")
	flag.StringVar(&o.bin, "bin", "", "directory holding thermflowd and thermflowgate (default <root>/.bench_build/bin)")
	flag.StringVar(&o.out, "out", "", "report file (default <root>/bench/out/<seed>/report.json)")
	flag.StringVar(&o.child, "child", "", "run one workload in this process and print its result (used by the parent)")
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		if args[0] != "compare" || len(args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: thermbench [flags] | thermbench [-root DIR] compare BASELINE.json CANDIDATE.json")
			os.Exit(2)
		}
		os.Exit(compareMain(o.root, args[1], args[2]))
	}
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "thermbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 0 || o.runs < 1 {
		return fmt.Errorf("-seconds must be >= 0 and -runs >= 1")
	}
	root, err := findRoot(o.root)
	if err != nil {
		return err
	}
	o.root = root
	if o.bin == "" {
		o.bin = filepath.Join(root, ".bench_build", "bin")
	}
	switch {
	case o.child != "":
		return runChild(ctx, o)
	case o.writeRef:
		path, err := writeReference(root, o.seed)
		if err == nil {
			fmt.Println("wrote", path)
		}
		return err
	}
	return orchestrate(ctx, o)
}

// findRoot returns dir, or the nearest directory at or above the
// working directory that holds BENCHMARK.json.
func findRoot(dir string) (string, error) {
	if dir != "" {
		return filepath.Abs(dir)
	}
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", errors.New("no BENCHMARK.json above the working directory; pass -root")
		}
	}
}

func selectWorkloads(list string) ([]string, error) {
	if list == "all" {
		return workloadNames, nil
	}
	var out []string
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if !slices.Contains(workloadNames, n) {
			return nil, fmt.Errorf("unknown workload %q (want one of %s)", n, strings.Join(workloadNames, ", "))
		}
		out = append(out, n)
	}
	return out, nil
}

// orchestrate runs every selected workload -runs times, each run in its
// own child process, and merges the runs into the report.
func orchestrate(ctx context.Context, o options) error {
	spec, err := loadBenchmark(o.root)
	if err != nil {
		return err
	}
	names, err := selectWorkloads(o.workload)
	if err != nil {
		return err
	}
	if err := checkBinaries(o.bin); err != nil && slices.Contains(names, "serve-mixed") {
		return err
	}
	path := o.out
	if path == "" {
		path = filepath.Join(outDir(o.root, o.seed), "report.json")
	}
	rep := &report{Provenance: newProvenance(o.root, o.seed, o.seconds), Workloads: map[string]*workloadReport{}}
	if old, err := readReport(path); err == nil && old.Provenance == rep.Provenance {
		rep.Workloads = old.Workloads
	}
	fresh := map[string]bool{}
	for r := 0; r < o.runs; r++ {
		for _, name := range names {
			res, err := runChildProcess(ctx, o, name)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, r+1, err)
			}
			w := rep.Workloads[name]
			if w == nil {
				w = &workloadReport{}
				rep.Workloads[name] = w
			}
			if !fresh[name] {
				fresh[name] = true
				if o.trace == 1 {
					w.TraceRuns = nil
				} else {
					w.Runs = nil
				}
			}
			if o.trace == 1 {
				w.TraceRuns = append(w.TraceRuns, *res)
			} else {
				w.Runs = append(w.Runs, *res)
			}
			w.summarize()
		}
	}
	if err := writeJSON(path, rep); err != nil {
		return err
	}
	printTable(rep, names)
	fmt.Println("report:", path)
	if len(names) != 1 {
		return nil
	}
	w := rep.Workloads[names[0]]
	runs := w.Runs
	if o.trace == 1 {
		runs = w.TraceRuns
	}
	line, err := resultLine(spec, o.trace == 1, runs)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChildProcess runs one workload run in a fresh copy of this binary
// and returns the result it prints. Cancelling ctx asks the child to
// stop (it then stops its own daemons) before it is killed.
func runChildProcess(ctx context.Context, o options, name string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-root", o.root, "-bin", o.bin}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 20 * time.Second
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	return &res, nil
}

// runChild runs one workload run in this process and prints its result
// as one JSON line.
func runChild(ctx context.Context, o options) error {
	env := runEnv{
		root: o.root, bin: o.bin, out: outDir(o.root, o.seed), seed: o.seed,
		seconds: o.seconds, trace: o.trace == 1, workers: runtime.NumCPU(),
		minSamples: minSamples,
	}
	if err := os.MkdirAll(env.out, 0o755); err != nil {
		return err
	}
	var res *runResult
	var err error
	if build, ok := libraryWorkloads[o.child]; ok {
		res, err = runLibrary(ctx, env, o.child, build)
	} else if o.child == "serve-mixed" {
		if err := checkBinaries(o.bin); err != nil {
			return err
		}
		res, err = runServe(ctx, env)
	} else {
		return fmt.Errorf("unknown workload %q", o.child)
	}
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted: %w", ctx.Err())
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
