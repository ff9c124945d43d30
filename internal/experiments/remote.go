package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/client"
)

// RemoteResult summarizes one remote sweep.
type RemoteResult struct {
	// Jobs is the number of jobs submitted; Errors how many failed.
	Jobs, Errors int
	// Cached counts results the server answered from an existing job
	// or its cache — on a second run against the same server this is
	// the cross-process dedup win.
	Cached int
	// Wall is the client-observed wall-clock of the whole stream.
	Wall time.Duration
	// ServerHits and ServerMisses are the server's cache counters
	// after the sweep (cumulative over the server's lifetime).
	ServerHits, ServerMisses uint64
	// DiskHits counts results the server pulled from its persistent
	// disk tier — after a thermflowd restart over the same -cache-dir
	// this is the warm-restart win
	// (TestClusterRemoteSweepCachedAndWarmAfterRestart requires every
	// job). Zero when the server runs memory-only.
	DiskHits uint64
}

// RemoteResetCache drops a running server's result cache and zeroes
// its counters (DELETE /v2/cache). Finished jobs stay in the server's
// registry, so a repeated sweep still converges on them.
func RemoteResetCache(addr string) error {
	_, err := client.New(addr, nil).ResetCache(context.Background())
	return err
}

// Remote runs the standard sweep matrix — every kernel × every policy,
// plus the sparse solver and two reduced register-file sizes per
// kernel — against a running thermflowd server instead of an
// in-process engine, streaming results as the server finishes them.
// Two processes pointed at the same server share its jobs and result
// cache, so a repeated sweep is answered almost entirely from them; the
// summary line reports the observed cached count and wall-clock.
//
// Quick trims the matrix to two kernels × two policies.
func Remote(cfg Config, addr string) (*RemoteResult, error) {
	cl := client.New(addr, nil)
	ctx := context.Background()

	kernels, err := cl.Kernels(ctx)
	if err != nil {
		return nil, fmt.Errorf("remote: listing kernels: %w", err)
	}
	policies := thermflow.Policies
	if cfg.Quick {
		if len(kernels) > 2 {
			kernels = kernels[:2]
		}
		policies = []thermflow.Policy{thermflow.FirstFree, thermflow.Chessboard}
	}

	var jobs []api.JobRequest
	for _, k := range kernels {
		for _, pol := range policies {
			jobs = append(jobs, api.JobRequest{
				Kernel:  k.Name,
				Options: thermflow.Options{Policy: pol},
			})
		}
		jobs = append(jobs, api.JobRequest{
			Kernel:  k.Name,
			Options: thermflow.Options{Solver: thermflow.SolverSparse},
		})
		if !cfg.Quick {
			for _, regs := range []int{16, 32} {
				jobs = append(jobs, api.JobRequest{
					Kernel:  k.Name,
					Options: thermflow.Options{NumRegs: regs, GridW: 8, GridH: 8},
				})
			}
		}
	}

	cfg.section(fmt.Sprintf("Remote sweep via %s (%d jobs)", addr, len(jobs)))
	cfg.printf("%-12s %-12s %-8s %5s %5s  %9s %6s\n",
		"kernel", "policy", "solver", "regs", "conv", "peak K", "cached")

	res := &RemoteResult{Jobs: len(jobs)}
	items := make([]api.JobItem, 0, len(jobs))
	start := time.Now()
	err = cl.CompileBatchJobs(ctx, jobs, func(item api.JobItem) {
		items = append(items, item)
	})
	res.Wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("remote: batch stream: %w", err)
	}

	// The stream arrives in completion order; report in job order.
	sort.Slice(items, func(i, j int) bool { return items[i].Index < items[j].Index })
	for _, item := range items {
		req := jobs[item.Index]
		if item.Error != "" {
			res.Errors++
			cfg.printf("%-12s job %d failed: %s\n", req.Kernel, item.Index, item.Error)
			continue
		}
		r := item.Result
		if r.Cached {
			res.Cached++
		}
		cfg.printf("%-12s %-12s %-8s %5d %5v  %9.2f %6v\n",
			req.Kernel, r.Policy, r.Solver, r.NumRegs, r.Converged, r.PeakTemp, r.Cached)
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("remote: cache stats: %w", err)
	}
	res.ServerHits, res.ServerMisses = stats.Cache.Hits, stats.Cache.Misses
	res.DiskHits = stats.Cache.Disk.Hits
	cfg.printf("\nremote sweep: jobs=%d errors=%d cached=%d wall_ms=%d server hits=%d misses=%d disk_hits=%d\n",
		res.Jobs, res.Errors, res.Cached, res.Wall.Milliseconds(),
		res.ServerHits, res.ServerMisses, res.DiskHits)
	return res, nil
}
