#!/bin/sh
# Load benchmark: start two thermflowd backends behind one
# thermflowgate and drive an open-loop arrival-rate sweep with
# cmd/thermload, writing BENCH_LOAD.json (per-stage offered rate,
# achieved throughput, p50/p95/p99 latency, error attribution). The
# -check gate makes this double as the CI `make smoke-load` step: it
# fails on any 5xx or transport error, or an empty/zero-latency stage.
#
# When the committed baseline report exists (scripts/baseline_load.json
# by default), the gate also diffs the fresh run against it: a stage
# whose p99 regresses more than 2x past the baseline (above thermload's
# absolute 25 ms floor, so single-digit-millisecond jitter never
# fails), or that shows transport errors the baseline did not have,
# fails CI. Regenerate the baseline with
# `OUT=scripts/baseline_load.json make bench-load` when a deliberate
# change moves the latency envelope.
#
# Tunables (environment):
#   PORT       base port (default 18470)
#   STAGES     offered rates in req/s     (default "25,50,100")
#   STAGE_SECS seconds per stage          (default 5)
#   OUT        report path                (default BENCH_LOAD.json)
#   BASELINE   committed report to diff   (default scripts/baseline_load.json;
#              "" or a missing file skips the diff)
set -eu

port="${PORT:-18470}"
stages="${STAGES:-25,50,100}"
stage_secs="${STAGE_SECS:-5}"
out="${OUT:-BENCH_LOAD.json}"
baseline="${BASELINE:-scripts/baseline_load.json}"
p1=$((port + 1))
p2=$((port + 2))
gw="http://127.0.0.1:$port"
b1="http://127.0.0.1:$p1"
b2="http://127.0.0.1:$p2"
tmp="$(mktemp -d)"
gpid=""
bpid1=""
bpid2=""
trap 'kill "${gpid:-}" "${bpid1:-}" "${bpid2:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/thermflowd" ./cmd/thermflowd
go build -o "$tmp/thermflowgate" ./cmd/thermflowgate
go build -o "$tmp/thermload" ./cmd/thermload

"$tmp/thermflowd" -addr "127.0.0.1:$p1" >"$tmp/b1.log" 2>&1 &
bpid1=$!
"$tmp/thermflowd" -addr "127.0.0.1:$p2" >"$tmp/b2.log" 2>&1 &
bpid2=$!
"$tmp/thermflowgate" -addr "127.0.0.1:$port" -backends "$b1,$b2" \
	-health-interval 300ms >"$tmp/gw.log" 2>&1 &
gpid=$!

# Readiness: both backends on the ring.
i=0
until curl -s "$gw/gateway/backends" 2>/dev/null | grep -q '"ring_backends": *2'; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && {
		echo "bench_load: gateway pool did not come up"
		cat "$tmp/gw.log" "$tmp/b1.log" "$tmp/b2.log" 2>/dev/null
		exit 1
	}
	sleep 0.2
done
echo "bench_load: gateway up, 2 backends on the ring"

baseline_flag=""
if [ -n "$baseline" ] && [ -f "$baseline" ] && [ "$baseline" != "$out" ]; then
	baseline_flag="-baseline $baseline"
	echo "bench_load: diffing against baseline $baseline"
fi
# $baseline_flag is deliberately unquoted: empty means no extra args.
# shellcheck disable=SC2086
"$tmp/thermload" -target "$gw" -stages "$stages" \
	-stage-duration "${stage_secs}s" -out "$out" -check $baseline_flag

# The observability plane saw the traffic: both the gateway and a
# backend expose non-trivial /metrics.
curl -s "$gw/metrics" | grep -q 'thermflow_http_requests_total{route="/v2/jobs"' ||
	{ echo "bench_load: gateway /metrics missing request series"; curl -s "$gw/metrics" | head -40; exit 1; }
curl -s "$b1/metrics" | grep -q 'thermflow_solver_runs_total' ||
	{ echo "bench_load: backend /metrics missing solver series"; curl -s "$b1/metrics" | head -40; exit 1; }
echo "bench_load: /metrics live on gateway and backends"

echo "bench_load: OK ($out written)"
