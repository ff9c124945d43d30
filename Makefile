GO ?= go

.PHONY: build test bench bench-serve bench-persist bench-load bench-region serve smoke smoke-persist smoke-jobs smoke-gateway smoke-durable smoke-load smoke-quota smoke-region smoke-trace fuzz fmt vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Records the batch-engine and solver benchmarks in BENCH_batch.json.
bench:
	sh scripts/bench_batch.sh

# Records the thermflowd cross-process cache-sharing win in
# BENCH_serve.json (two cmd/experiments runs against one server).
bench-serve:
	sh scripts/bench_serve.sh

# Records the persistent-cache warm-restart win in BENCH_persist.json
# (full sweep, hard thermflowd restart over the same -cache-dir).
bench-persist:
	sh scripts/bench_persist.sh

# Runs the analysis server on :8080 (override with ADDR=host:port).
serve:
	$(GO) run ./cmd/thermflowd -addr $(or $(ADDR),:8080)

# Starts thermflowd, sweeps against it twice via the client, asserts
# the repeat is served from cache (the CI server smoke step).
smoke:
	sh scripts/serve_smoke.sh

# Starts thermflowd with a disk cache tier, hard-restarts it, asserts
# the repeat sweep is served from disk (the CI persistence smoke step).
smoke-persist:
	sh scripts/persist_smoke.sh

# Starts thermflowd with auth and exercises the job lifecycle end to
# end: 401, submit/wait/done, duplicate-submit convergence, ID-keyed
# batch stream, and a 429 from a default-profile quota file (the CI
# jobs smoke step).
smoke-jobs:
	sh scripts/jobs_smoke.sh

# Starts 2 thermflowd backends + 1 thermflowgate, runs the 99-job
# sweep through the gateway, kills one backend mid-sweep, and asserts
# every job ID is answered exactly once via failover re-dispatch (the
# CI gateway smoke step).
smoke-gateway:
	sh scripts/gateway_smoke.sh

# Starts thermflowd with -job-log-dir, runs the 99-job sweep via
# POST /v2/jobs, SIGKILLs the daemon, restarts it, and asserts every
# job ID resolves to the identical result; then asserts a gateway with
# -replicas 1 answers a dead owner's job from the ring successor (the
# CI durability smoke step).
smoke-durable:
	sh scripts/durability_smoke.sh

# Starts 2 thermflowd backends + 1 thermflowgate and drives an
# open-loop arrival-rate sweep with cmd/thermload, writing
# BENCH_LOAD.json; -check fails the run on any 5xx/transport error, an
# empty stage, or a >2x p99 regression against the committed
# scripts/baseline_load.json (the CI load smoke step). bench-load is
# the same run by its benchmarking name.
smoke-load bench-load:
	sh scripts/bench_load.sh

# Two tenants (critical "high", batch "low") hammer a 2-backend pool
# through thermflowgate with a quota file: asserts "low" is shed
# (429/503, correctly attributed) while "high" completes everything
# with zero 5xx and a bounded p99, then checks the admission counters
# on /metrics (the CI quota smoke step).
smoke-quota:
	sh scripts/quota_smoke.sh

# Starts 2 thermflowd backends + 1 thermflowgate, submits a mega-module
# as a kind:"region" job, and asserts the gateway fanned per-region
# fixpoint steps out to both backends and that the merged result is
# field-for-field identical to the same spec solved whole on one
# backend (the CI region smoke step).
smoke-region:
	sh scripts/region_smoke.sh

# Starts two backends behind a gateway and asserts the tracing plane
# end to end over real processes: a client-minted X-Thermflow-Trace
# propagates through the gateway to both backends, a region job answers
# one stitched timeline with region.solve spans from two distinct
# backends, and a thermload sweep's reported slowest trace resolves to
# its job timeline (the CI trace smoke step).
smoke-trace:
	sh scripts/trace_smoke.sh

# Records the mega-module solver benchmarks (monolithic dense/sparse vs
# partitioned exact and σ-slack region solves) in BENCH_region.json,
# including rounds-to-fixpoint; parallel speedup fields are emitted
# only on a >=4-cpu host.
bench-region:
	sh scripts/bench_region.sh

# Short fuzz pass over the IR parsers, the JobSpec wire codec and the
# WAL recovery path (the seed corpora alone run under plain
# `make test`).
fuzz:
	$(GO) test ./internal/ir -fuzz 'FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/ir -fuzz 'FuzzParseModule$$' -fuzztime 30s
	$(GO) test . -fuzz 'FuzzJobSpecDecode$$' -fuzztime 30s
	$(GO) test ./internal/joblog -fuzz 'FuzzJoblogRecover$$' -fuzztime 30s

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

ci: fmt vet build test
