package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"

	"thermflow"
)

// refEntry is the reference outcome of one compile.
type refEntry struct {
	PeakTemp  float64   `json:"peak"`
	RegPeak   []float64 `json:"reg_peak"`
	Converged bool      `json:"converged"`
}

// reference maps job-spec IDs to the outcomes the dense solver
// produced when the file was written.
type reference struct {
	Schema  int                 `json:"schema"`
	Seed    int64               `json:"seed"`
	Entries map[string]refEntry `json:"entries"`
}

// refSchema versions the reference file layout.
const refSchema = 1

// refTolerance is how far, in kelvin, a temperature may sit from its
// reference before the result counts as wrong.
const refTolerance = 1e-6

// regPeakDigits is the precision RegPeak is stored with: far below
// refTolerance, and it keeps the committed files small.
const regPeakDigits = 7

// referencePath names a seed's reference file: gzip-compressed JSON,
// since one seed's ~2000 entries of per-register peaks are near a
// megabyte as text.
func referencePath(root string, seed int64) string {
	return filepath.Join(root, "bench", "testdata", fmt.Sprintf("reference-seed%d.json.gz", seed))
}

// loadReference reads the seed's reference file; a seed without one
// yields nil and no error.
func loadReference(root string, seed int64) (*reference, error) {
	f, err := os.Open(referencePath(root, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("reference for seed %d: %w", seed, err)
	}
	var ref reference
	if err := json.NewDecoder(zr).Decode(&ref); err != nil {
		return nil, fmt.Errorf("reference for seed %d: %w", seed, err)
	}
	if ref.Schema != refSchema || ref.Seed != seed {
		return nil, fmt.Errorf("reference for seed %d: schema %d seed %d, want schema %d", seed, ref.Schema, ref.Seed, refSchema)
	}
	return &ref, nil
}

// encodeReference renders the file with one entry per line, sorted by
// ID, so regenerated references diff readably.
func encodeReference(ref *reference) []byte {
	ids := make([]string, 0, len(ref.Entries))
	for id := range ref.Entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"schema\":%d,\"seed\":%d,\"entries\":{\n", ref.Schema, ref.Seed)
	for i, id := range ids {
		e := ref.Entries[id]
		fmt.Fprintf(&b, "%q:{\"peak\":%s,\"converged\":%t,\"reg_peak\":[", id,
			strconv.FormatFloat(e.PeakTemp, 'g', -1, 64), e.Converged)
		for j, v := range e.RegPeak {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'f', regPeakDigits, 64))
		}
		b.WriteString("]}")
		if i < len(ids)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}}\n")
	return b.Bytes()
}

// outcome of one compile as the oracle sees it, whether it came from a
// local Compile or a served response.
type result struct {
	PeakTemp  float64
	RegPeak   []float64
	Converged bool
}

func resultOf(c *thermflow.Compiled) result {
	if c.Thermal == nil {
		return result{PeakTemp: math.NaN()}
	}
	return result{PeakTemp: c.Thermal.PeakTemp, RegPeak: c.Thermal.RegPeak, Converged: c.Thermal.Converged}
}

// oracle counts results that differ from the reference or break an
// invariant. Safe for concurrent use.
type oracle struct {
	ref        *reference // nil: no reference for this seed
	wrong      atomic.Int64
	invariants atomic.Int64
	checked    atomic.Int64
}

// check judges one result of the compile identified by in. ambient is
// the compile's heat-sink temperature.
func (o *oracle) check(in *input, r result, ambient float64) {
	o.checked.Add(1)
	if !invariantsHold(r, ambient) {
		o.invariants.Add(1)
	}
	if o.ref == nil || !in.Referenced {
		return
	}
	want, ok := o.ref.Entries[in.ID]
	if !ok || !matches(r, want) {
		o.wrong.Add(1)
	}
}

// checkResiduals computes the frequency estimate of the code under test
// on every distinct program of inputs, outside any timed window, counts
// each whose flow-equation residual exceeds maxResidual as an invariant
// failure, and returns the largest residual.
func (o *oracle) checkResiduals(inputs []input) float64 {
	seen := map[*thermflow.Program]bool{}
	worst := 0.0
	for i := range inputs {
		p := inputs[i].Prog
		if seen[p] {
			continue
		}
		seen[p] = true
		r := flowResidual(p.Fn)
		if !(r <= maxResidual) {
			o.invariants.Add(1)
		}
		if r > worst || math.IsNaN(r) {
			worst = r
		}
	}
	return worst
}

// invariantsHold checks what any correct result satisfies: finite
// temperatures, none below ambient, and the overall peak at least every
// register's peak.
func invariantsHold(r result, ambient float64) bool {
	const eps = 1e-9
	if math.IsNaN(r.PeakTemp) || math.IsInf(r.PeakTemp, 0) || r.PeakTemp < ambient-eps {
		return false
	}
	for _, t := range r.RegPeak {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < ambient-eps || t > r.PeakTemp+eps {
			return false
		}
	}
	return true
}

func matches(r result, want refEntry) bool {
	if r.Converged != want.Converged || len(r.RegPeak) != len(want.RegPeak) {
		return false
	}
	if !(math.Abs(r.PeakTemp-want.PeakTemp) <= refTolerance) {
		return false
	}
	for i, t := range r.RegPeak {
		if !(math.Abs(t-want.RegPeak[i]) <= refTolerance) {
			return false
		}
	}
	return true
}

// wrongCount renders wrong_results: a count when a reference was
// checked, the string "unchecked" otherwise.
type wrongCount struct {
	N       int64
	Checked bool
}

func (w wrongCount) MarshalJSON() ([]byte, error) {
	if !w.Checked {
		return []byte(`"unchecked"`), nil
	}
	return []byte(strconv.FormatInt(w.N, 10)), nil
}

func (w *wrongCount) UnmarshalJSON(b []byte) error {
	if string(b) == `"unchecked"` {
		*w = wrongCount{}
		return nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("wrong_results: %w", err)
	}
	*w = wrongCount{N: n, Checked: true}
	return nil
}

func (o *oracle) wrongCount() wrongCount {
	return wrongCount{N: o.wrong.Load(), Checked: o.ref != nil}
}

// correct reports whether every checked result passed.
func (o *oracle) correct() bool {
	return o.wrong.Load() == 0 && o.invariants.Load() == 0
}

// referenceInputs is every input the reference covers for a seed: the
// three library workloads and the serve workload's hot set.
func referenceInputs(seed int64) ([]input, error) {
	var all []input
	for _, build := range []func(int64) ([]input, error){
		func(s int64) ([]input, error) { return kernelSweepInputs(s) },
		func(s int64) ([]input, error) { return spillInputs(s, spillCount) },
		func(s int64) ([]input, error) { return megaInputs(s, megaCount) },
		hotSetInputs,
	} {
		ins, err := build(seed)
		if err != nil {
			return nil, err
		}
		all = append(all, ins...)
	}
	return all, nil
}

// writeReference compiles every reference input with the current code
// and writes the seed's reference file.
func writeReference(root string, seed int64) (string, error) {
	ins, err := referenceInputs(seed)
	if err != nil {
		return "", err
	}
	var or oracle
	if or.checkResiduals(ins); or.invariants.Load() > 0 {
		return "", fmt.Errorf("%d programs' frequency estimates break the flow equations; refusing to record them", or.invariants.Load())
	}
	ref := &reference{Schema: refSchema, Seed: seed, Entries: make(map[string]refEntry, len(ins))}
	for i := range ins {
		in := &ins[i]
		if _, done := ref.Entries[in.ID]; done {
			continue
		}
		c, err := in.Prog.Compile(in.Opts)
		if err != nil {
			return "", fmt.Errorf("%s: %w", in.Name, err)
		}
		r := resultOf(c)
		if !invariantsHold(r, c.Tech().TAmbient) {
			return "", fmt.Errorf("%s: result breaks an invariant; refusing to record it", in.Name)
		}
		ref.Entries[in.ID] = refEntry{PeakTemp: r.PeakTemp, RegPeak: r.RegPeak, Converged: r.Converged}
	}
	// A zero gzip header (no name, no time) keeps the file a pure
	// function of the results.
	var zb bytes.Buffer
	zw, err := gzip.NewWriterLevel(&zb, gzip.BestCompression)
	if err != nil {
		return "", err
	}
	if _, err := zw.Write(encodeReference(ref)); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	path := referencePath(root, seed)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, zb.Bytes(), 0o644)
}
