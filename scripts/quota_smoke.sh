#!/bin/sh
# Quota smoke: prove the multi-tenant admission plane attributes
# shedding to the right tenant. Two thermflowd backends (bounded job
# queues, trusting the gateway's tenant header) sit behind one
# thermflowgate holding the token file and the quota file. thermload
# then interleaves two tenants through the v2 job API with unique job
# bodies:
#
#   high  class critical, generous rate     1/3 of arrivals, priority 10
#   low   class batch, rate 5 req/s         2/3 of arrivals, priority 0
#
# The offered rate pushes "low" far past its own envelope, so the edge
# answers it 429 (and any queue pressure sheds it first as batch
# class), while "high" must come through clean: zero 5xx, zero
# transport errors, zero 503, and a bounded p99. thermload's -check
# gate enforces exactly that (-require-clean high -require-shed low),
# and the script then asserts the admission counters actually moved on
# /metrics — the gateway counted batch-class rate rejections, the
# backends counted critical-class admissions under the forwarded
# tenant identity, and the queue-bound gauge is exported.
#
# Tunables (environment):
#   PORT        base port                  (default 18480)
#   STAGES      offered rates in req/s     (default "30")
#   STAGE_SECS  seconds per stage          (default 8)
#   MAX_P99_MS  p99 bound for "high"       (default 10000)
set -eu

port="${PORT:-18480}"
stages="${STAGES:-30}"
stage_secs="${STAGE_SECS:-8}"
max_p99="${MAX_P99_MS:-10000}"
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

cat >"$tmp/quotas.json" <<'EOF'
{
  "default": {"class": "standard", "rate": 5, "burst": 5},
  "tenants": [
    {"name": "high", "class": "critical", "tokens": ["tok-high"],
     "rate": 400, "burst": 800},
    {"name": "low", "class": "batch", "tokens": ["tok-low"],
     "rate": 5, "burst": 5, "max_queue": 8}
  ]
}
EOF
printf 'tok-high\ntok-low\n' >"$tmp/tokens"

# Backends trust the tenant header only because nothing but the
# gateway can reach them in this harness; they bound their queues so
# admission control is live.
"$tmp/thermflowd" -addr "127.0.0.1:$p1" -workers 1 \
	-quota-file "$tmp/quotas.json" -trust-tenant-header \
	-job-max-queue 16 -job-queue-watermark 8 >"$tmp/b1.log" 2>&1 &
bpid1=$!
"$tmp/thermflowd" -addr "127.0.0.1:$p2" -workers 1 \
	-quota-file "$tmp/quotas.json" -trust-tenant-header \
	-job-max-queue 16 -job-queue-watermark 8 >"$tmp/b2.log" 2>&1 &
bpid2=$!
"$tmp/thermflowgate" -addr "127.0.0.1:$port" -backends "$b1,$b2" \
	-auth-token-file "$tmp/tokens" -quota-file "$tmp/quotas.json" \
	-health-interval 300ms >"$tmp/gw.log" 2>&1 &
gpid=$!

# Readiness: both backends on the ring.
i=0
until curl -s -H 'Authorization: Bearer tok-high' "$gw/gateway/backends" 2>/dev/null |
	grep -q '"ring_backends": *2'; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && {
		echo "quota_smoke: gateway pool did not come up"
		cat "$tmp/gw.log" "$tmp/b1.log" "$tmp/b2.log" 2>/dev/null
		exit 1
	}
	sleep 0.2
done
echo "quota_smoke: gateway up, 2 backends on the ring"

"$tmp/thermload" -target "$gw" -unique \
	-tenants "high:tok-high:10:1,low:tok-low:0:2" \
	-stages "$stages" -stage-duration "${stage_secs}s" -timeout 20s \
	-out "$tmp/quota_load.json" \
	-check -require-clean high -require-shed low -max-clean-p99-ms "$max_p99"

# The admission plane left its audit trail on /metrics: the gateway
# counted batch-class rate rejections at the edge...
curl -s -H 'Authorization: Bearer tok-high' "$gw/metrics" |
	grep 'thermflow_admission_total{tenant_class="batch",decision="rate_limited"}' |
	grep -qv ' 0$' || {
	echo "quota_smoke: gateway /metrics missing batch rate_limited admissions"
	curl -s -H 'Authorization: Bearer tok-high' "$gw/metrics" | grep thermflow_admission || true
	exit 1
}
# ...and the backends admitted critical-class jobs under the tenant
# identity the gateway forwarded.
{ curl -s "$b1/metrics"; curl -s "$b2/metrics"; } >"$tmp/backend_metrics"
grep 'thermflow_admission_total{tenant_class="critical",decision="admitted"}' \
	"$tmp/backend_metrics" | grep -qv ' 0$' || {
	echo "quota_smoke: backends /metrics missing critical admitted jobs"
	grep thermflow_admission "$tmp/backend_metrics" || true
	exit 1
}
grep -q 'thermflow_jobs_queue_bound{bound="max"} 16' "$tmp/backend_metrics" || {
	echo "quota_smoke: backends /metrics missing queue-bound gauge"
	grep thermflow_jobs_queue_bound "$tmp/backend_metrics" || true
	exit 1
}
echo "quota_smoke: admission counters live on gateway and backends"

echo "quota_smoke: OK (high clean, low shed, counters attributed)"
