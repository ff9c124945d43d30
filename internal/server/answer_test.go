package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thermflow"
	"thermflow/api"
	"thermflow/internal/cachestore"
	"thermflow/internal/jobs"
	"thermflow/internal/trace"
)

// answerCase is one request the answer tests serve, with the local
// compile its served result must match.
type answerCase struct {
	name string
	req  api.JobRequest
	c    *thermflow.Compiled
}

// answerCases are the 11 kernels under each of the six policies and
// 20 generated programs, some on a register file small enough to
// spill, each compiled locally.
func answerCases(t *testing.T) []answerCase {
	t.Helper()
	var cases []answerCase
	for _, name := range thermflow.Kernels() {
		p, err := thermflow.Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range thermflow.Policies {
			opts := thermflow.Options{Policy: pol}
			c, err := p.Compile(opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, pol, err)
			}
			cases = append(cases, answerCase{name + "/" + pol.String(), api.JobRequest{Kernel: name, Options: opts}, c})
		}
	}
	for i := 0; i < 20; i++ {
		p := thermflow.Generate(thermflow.GenerateOptions{
			Seed: int64(i + 1), Pressure: 6 + i%8, Segments: 2 + i%3,
			LoopDepth: 1 + i%2, Irregularity: float64(i%5) / 5,
		})
		// The server compiles the program's text; a reparse numbers
		// values afresh, which some policies' choices depend on.
		src := p.Fn.String()
		p, err := thermflow.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		opts := thermflow.Options{Policy: thermflow.Policies[i%len(thermflow.Policies)], NumRegs: 8 + 8*(i%2)}
		c, err := p.Compile(opts)
		if err != nil {
			t.Fatalf("generated %d: %v", i, err)
		}
		cases = append(cases, answerCase{fmt.Sprintf("gen-%d", i), api.JobRequest{Program: src, Options: opts}, c})
	}
	return cases
}

// wantResult is a local compile's answer as the server must serve it.
func wantResult(t *testing.T, c *thermflow.Compiled, cached bool) []byte {
	t.Helper()
	b, err := json.Marshal(api.ResponseFor(c, cached))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// servedDoc is a job status or batch item document with its result
// kept as the bytes the server wrote.
type servedDoc struct {
	Index  int             `json:"index"`
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// result is d's result as the server wrote it, with only its
// indentation removed.
func (d servedDoc) result(t *testing.T) []byte {
	t.Helper()
	if d.Error != "" || d.Result == nil || (d.State != "" && d.State != "done") {
		t.Fatalf("not a served answer: %+v", d)
	}
	var out bytes.Buffer
	if err := json.Compact(&out, d.Result); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// submitAndWait submits req through POST /v2/jobs and long-polls the
// job to its terminal status.
func submitAndWait(t *testing.T, ts *httptest.Server, req api.JobRequest) servedDoc {
	t.Helper()
	var st servedDoc
	if code := postJSON(t, ts.URL+"/v2/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit %+v: status %d", req, code)
	}
	getJSON(t, ts.URL+"/v2/jobs/"+st.ID+"/wait?timeout_ms=60000", &st)
	return st
}

// serveByStatus runs every case through POST /v2/jobs and returns the
// result of each job's terminal status.
func serveByStatus(t *testing.T, ts *httptest.Server, cases []answerCase) [][]byte {
	t.Helper()
	out := make([][]byte, len(cases))
	for i, tc := range cases {
		out[i] = submitAndWait(t, ts, tc.req).result(t)
	}
	return out
}

// checkServed compares each served result with the local compile's.
func checkServed(t *testing.T, tier string, cases []answerCase, got [][]byte, cached bool) {
	t.Helper()
	for i, tc := range cases {
		if want := wantResult(t, tc.c, cached); !bytes.Equal(got[i], want) {
			t.Errorf("%s: %s served\n%s\nwant\n%s", tier, tc.name, got[i], want)
		}
	}
}

// The answer a backend stores is the answer a local compile gives,
// byte for byte and cached flag included, from every place it can be
// served: the live registry, the memory tier once the registry dropped
// the job, the disk tier of a fresh server over the same directory,
// and a /v2/batch item.
func TestServedAnswersMatchLocalCompileFromEveryTier(t *testing.T) {
	cases := answerCases(t)
	dir := t.TempDir()

	// (a) The live registry: every job is fresh, so nothing is cached.
	ts, _ := newDiskServer(t, dir, Config{})
	checkServed(t, "registry", cases, serveByStatus(t, ts, cases), false)
	ts.Close()

	// (b) The memory tier: a registry that retains no finished job
	// takes the repeat of each spec as a new job, which the memory tier
	// answers.
	_, mem := newDiskServer(t, "", noRetention)
	for pass, cached := range []bool{false, true} {
		got := make([][]byte, len(cases))
		for i, tc := range cases {
			spec, err := ResolveSpec(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			h, _, err := mem.Jobs().SubmitTraced(spec, jobs.Limits{}, trace.SpanContext{})
			if err != nil {
				t.Fatal(err)
			}
			snap, err := h.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			doc, err := json.Marshal(jobStatus(snap))
			if err != nil {
				t.Fatal(err)
			}
			var d servedDoc
			if err := json.Unmarshal(doc, &d); err != nil {
				t.Fatal(err)
			}
			got[i] = d.result(t)
		}
		checkServed(t, fmt.Sprintf("memory tier, pass %d", pass), cases, got, cached)
	}
	if hits := mem.Batch().Store().Stats().Mem.Hits; hits != uint64(len(cases)) {
		t.Errorf("memory tier hits = %d, want %d", hits, len(cases))
	}

	// (c) The disk tier: a fresh server over the first one's directory.
	ts, disk := newDiskServer(t, dir, Config{})
	checkServed(t, "disk tier", cases, serveByStatus(t, ts, cases), true)
	if st := disk.Batch().Store().Stats().Disk; st.Hits != uint64(len(cases)) || st.Corrupt != 0 {
		t.Errorf("disk tier = %+v, want %d hits and nothing corrupt", st, len(cases))
	}

	// (d) A /v2/batch item on a fresh server.
	ts, _ = newDiskServer(t, "", Config{})
	reqs := make([]api.JobRequest, len(cases))
	for i, tc := range cases {
		reqs[i] = tc.req
	}
	body, err := json.Marshal(api.JobsBatchRequest{Jobs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	code, stream := post(t, ts.URL+"/v2/batch", string(body))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, stream)
	}
	got := make([][]byte, len(cases))
	for _, line := range strings.Split(strings.TrimSpace(stream), "\n") {
		var item servedDoc
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatal(err)
		}
		got[item.Index] = item.result(t)
	}
	checkServed(t, "batch item", cases, got, false)
}

// rawCodec stores byte slices as they are: how this test writes a
// disk entry in a layout the answer codec does not read.
type rawCodec struct{}

func (rawCodec) Encode(v any) ([]byte, error)    { return v.([]byte), nil }
func (rawCodec) Decode(data []byte) (any, error) { return data, nil }

// A cache directory written by a release that persisted whole
// compilations (payload version 1), or by a later one, holds entries
// the answer codec does not read. Each reads as a miss, counts as
// corrupt and is removed, and its job recomputes to done and is
// persisted as an answer.
func TestForeignCacheEntriesRecompute(t *testing.T) {
	for _, version := range []uint16{1, 3} {
		t.Run(fmt.Sprintf("version %d", version), func(t *testing.T) {
			dir := t.TempDir()
			req := api.JobRequest{Kernel: "fir", Options: thermflow.Options{Policy: thermflow.Chessboard}}
			spec, err := ResolveSpec(req)
			if err != nil {
				t.Fatal(err)
			}
			id, err := spec.ID()
			if err != nil {
				t.Fatal(err)
			}
			old, err := cachestore.Open(cachestore.Config{Dir: dir, Codec: rawCodec{}})
			if err != nil {
				t.Fatal(err)
			}
			old.Put(id, append(binary.LittleEndian.AppendUint16(nil, version), `{"opts":{},"fn":"func"}`...))

			ts, srv := newDiskServer(t, dir, Config{})
			st := submitAndWait(t, ts, req)
			if st.State != "done" || st.Result == nil {
				t.Fatalf("job over a foreign entry: %+v; want done", st)
			}
			var served api.CompileResponse
			if err := json.Unmarshal(st.Result, &served); err != nil || served.Cached {
				t.Fatalf("job over a foreign entry served %s (%v); want a fresh compile", st.Result, err)
			}
			tiers := srv.Batch().Store().Stats().Disk
			if tiers.Hits != 0 || tiers.Misses != 1 || tiers.Corrupt != 1 {
				t.Errorf("disk tier = %+v, want 1 miss counted corrupt", tiers)
			}
			// The foreign entry was replaced by the recomputed answer.
			fresh, err := jobs.NewEngine(1, cachestore.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := fresh.Store().Get(id); !ok {
				t.Error("recomputed answer did not persist")
			} else if a := v.(*thermflow.Answer); a.PeakTemp != served.PeakTemp {
				t.Errorf("persisted answer peak %v, served %v", a.PeakTemp, served.PeakTemp)
			}
		})
	}
}
