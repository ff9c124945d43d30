package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"thermflow"
	"thermflow/api"
	"thermflow/client"
	"thermflow/internal/cachestore"
	"thermflow/internal/jobs"
)

// newDiskServer serves the answer engine with a disk tier in dir (none
// when dir is empty) under cfg; with noRetention, repeats reach the
// tiers.
func newDiskServer(t *testing.T, dir string, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	eng, err := jobs.NewEngine(2, cachestore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewConfig(eng, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv
}

// GET /v2/stats must expose both cache tiers; without -cache-dir the
// disk tier reports disabled and all-zero.
func TestCacheStatsReportTiers(t *testing.T) {
	ts, _ := newJobsServer(t, 2, noRetention)
	cl := client.New(ts.URL, nil)
	for i := 0; i < 2; i++ {
		compileOne(t, cl, api.JobRequest{Kernel: "dot"})
	}
	st := cacheStats(t, cl)
	if st.DiskEnabled {
		t.Error("memory-only server reports a disk tier")
	}
	if st.Disk != (api.TierStats{}) {
		t.Errorf("disk tier should be zero: %+v", st.Disk)
	}
	if st.Memory.Entries != 1 || st.Memory.Puts != 1 {
		t.Errorf("memory tier = %+v, want 1 entry / 1 put", st.Memory)
	}
	if st.Memory.Bytes <= 0 || st.Memory.CapBytes <= 0 {
		t.Errorf("memory tier sizes unset: %+v", st.Memory)
	}
	if st.Memory.Hits != 1 {
		t.Errorf("memory hits = %d, want 1 (the repeat)", st.Memory.Hits)
	}
}

// The warm-restart property end to end: a second server over the same
// cache directory serves the first server's results from disk.
func TestRestartedServerComesBackWarm(t *testing.T) {
	dir := t.TempDir()
	req := api.JobRequest{Kernel: "matmul", Options: thermflow.Options{Policy: thermflow.Chessboard}}

	ts1, _ := newDiskServer(t, dir, noRetention)
	first := compileOne(t, client.New(ts1.URL, nil), req)
	if first.Cached {
		t.Error("cold compile reported Cached")
	}
	ts1.Close()

	ts2, _ := newDiskServer(t, dir, noRetention)
	cl := client.New(ts2.URL, nil)
	second := compileOne(t, cl, req)
	if !second.Cached {
		t.Fatal("restarted server did not serve from disk")
	}
	if first.PeakTemp != second.PeakTemp || first.Converged != second.Converged ||
		first.Alloc.UsedRegs != second.Alloc.UsedRegs {
		t.Errorf("disk result diverged: %+v vs %+v", first, second)
	}
	if st := cacheStats(t, cl); !st.DiskEnabled || st.Disk.Hits != 1 {
		t.Errorf("disk tier after warm hit = %+v, want 1 hit", st.Disk)
	}
	// Third request: the promoted entry now hits in memory.
	if third := compileOne(t, cl, req); !third.Cached {
		t.Error("promoted entry missed")
	}
	if st := cacheStats(t, cl); st.Memory.Hits != 1 || st.Disk.Hits != 1 {
		t.Errorf("promotion stats = mem %d / disk %d hits, want 1 / 1", st.Memory.Hits, st.Disk.Hits)
	}
}

// DELETE /v2/cache must report zeroed stats for both tiers, and the
// disk entries must really be gone: a restart over the same directory
// stays cold.
func TestCacheResetZeroesBothTiers(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newDiskServer(t, dir, noRetention)
	cl := client.New(ts.URL, nil)
	for _, kernel := range []string{"dot", "fib"} {
		compileOne(t, cl, api.JobRequest{Kernel: kernel})
	}
	st, err := cl.ResetCache(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 0 || st.Misses != 0 || st.Panics != 0 {
		t.Errorf("top-level stats after reset = %+v, want zeros", st)
	}
	wantMem := api.TierStats{CapBytes: st.Memory.CapBytes}
	if st.Memory != wantMem {
		t.Errorf("memory tier after reset = %+v, want zeroed", st.Memory)
	}
	wantDisk := api.TierStats{CapBytes: st.Disk.CapBytes}
	if st.Disk != wantDisk {
		t.Errorf("disk tier after reset = %+v, want zeroed", st.Disk)
	}
	// GET /v2/stats agrees with the DELETE response.
	if st2 := cacheStats(t, cl); st2.Memory != wantMem || st2.Disk != wantDisk {
		t.Errorf("GET after DELETE = %+v / %+v, want zeroed", st2.Memory, st2.Disk)
	}
	ts.Close()

	ts2, _ := newDiskServer(t, dir, noRetention)
	if resp := compileOne(t, client.New(ts2.URL, nil), api.JobRequest{Kernel: "dot"}); resp.Cached {
		t.Error("reset disk entries survived a restart")
	}
}

// Reset racing a live batch: the DELETE returns zeroed tiers while the
// stream is still being served, every job still completes, and the
// server stays consistent. (The deterministic single-job variant lives
// in internal/batch; this exercises the full HTTP path, and -race
// guards the concurrency.)
func TestCacheResetWhileBatchInFlight(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()

	jobs := make([]api.JobRequest, 40)
	for i := range jobs {
		// Distinct keys: vary the register count so every job compiles.
		jobs[i] = api.JobRequest{Kernel: "matmul", Options: thermflow.Options{NumRegs: 16 + i}}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	streamed := 0
	var streamErr error
	go func() {
		defer wg.Done()
		streamErr = cl.CompileBatchJobs(ctx, jobs, func(item api.JobItem) {
			if item.Error != "" {
				streamErr = fmt.Errorf("job %d: %s", item.Index, item.Error)
			}
			streamed++
		})
	}()

	st, err := cl.ResetCache(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Hits stay zero through the whole run (every job key is distinct),
	// so a non-zero hit count here means the reset failed to zero the
	// counters. Misses/Puts are deliberately not asserted: jobs
	// starting after the reset may already have bumped them, which is
	// correct behaviour.
	if st.Hits != 0 || st.Memory.Hits != 0 || st.Disk.Hits != 0 {
		t.Errorf("mid-flight reset returned non-zero hit counters: %+v", st)
	}
	wg.Wait()
	if streamErr != nil {
		t.Fatalf("batch across a reset: %v", streamErr)
	}
	if streamed != len(jobs) {
		t.Fatalf("streamed %d of %d results across a reset", streamed, len(jobs))
	}
}

// cacheStats reads the server's cache counters from GET /v2/stats.
func cacheStats(t *testing.T, cl *client.Client) api.CacheStats {
	t.Helper()
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st.Cache
}
