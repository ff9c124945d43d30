package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"thermflow/api"
)

// Pool is a set of clients over the individual backends of a sharded
// (thermflowgate-fronted) deployment. Normal traffic goes through the
// gateway with a plain Client — sharding is transparent on the wire —
// but tests and operational tooling need to see through it: which
// backend owns a job, what each member's cache looks like, resetting
// every shard at once. A Pool is safe for concurrent use.
type Pool struct {
	clients []*Client
}

// NewPool builds one client per backend base URL, all sharing the
// given options (httpClient nil selects a default per client).
func NewPool(baseURLs []string, httpClient *http.Client, opts ...Option) *Pool {
	p := &Pool{clients: make([]*Client, len(baseURLs))}
	for i, base := range baseURLs {
		p.clients[i] = New(base, httpClient, opts...)
	}
	return p
}

// Size is the number of backends.
func (p *Pool) Size() int { return len(p.clients) }

// Client returns the i-th backend's client.
func (p *Pool) Client(i int) *Client { return p.clients[i] }

// ErrJobNotFound reports that no backend in the pool knows the job.
var ErrJobNotFound = errors.New("client: job on no backend in the pool")

// FindJob asks every backend for the job and returns the first
// backend (by index) that knows it — how a test asserts which shard
// owns an ID. A backend answering 404 just doesn't own it, and a
// replica-shelf answer (see api.JobStatus.Replica) is a copy, not
// ownership; any other failure aborts the scan.
func (p *Pool) FindJob(ctx context.Context, id string) (*api.JobStatus, int, error) {
	for i, cl := range p.clients {
		st, err := cl.Job(ctx, id)
		if err == nil {
			if st.Replica {
				continue
			}
			return st, i, nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
			continue
		}
		return nil, -1, fmt.Errorf("backend %d: %w", i, err)
	}
	return nil, -1, ErrJobNotFound
}

// CacheStats reads every backend's cache counters (the cache block of
// GET /v2/stats), by backend index.
func (p *Pool) CacheStats(ctx context.Context) ([]api.CacheStats, error) {
	out := make([]api.CacheStats, len(p.clients))
	for i, cl := range p.clients {
		st, err := cl.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		out[i] = st.Cache
	}
	return out, nil
}

// ResetAll drops every backend's result cache.
func (p *Pool) ResetAll(ctx context.Context) error {
	for i, cl := range p.clients {
		if _, err := cl.ResetCache(ctx); err != nil {
			return fmt.Errorf("backend %d: %w", i, err)
		}
	}
	return nil
}
