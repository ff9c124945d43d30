#!/bin/sh
# Measures the persistent-cache warm-restart win (ROADMAP "cross-kernel
# cache persistence"): starts thermflowd with a disk cache tier, runs
# the full cmd/experiments sweep cold, kills the server, restarts it
# over the same -cache-dir, and repeats the sweep. The restarted
# process has an empty memory tier — every hit on the second run is
# the disk tier deserializing a persisted result instead of compiling.
# Records both wall-clocks, the disk hit count and the speedup in
# BENCH_persist.json, and fails unless the restart-warm run resolves
# >= 90% of jobs from disk at >= 5x the cold wall-clock.
#
# Usage: scripts/bench_persist.sh [output.json]
set -eu

out="${1:-BENCH_persist.json}"
port="${PORT:-18429}"
base="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
cache="$tmp/cache"
spid=""
trap 'kill "${spid:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/thermflowd" ./cmd/thermflowd
go build -o "$tmp/experiments" ./cmd/experiments

# The readiness probe must not touch the cache: run 2's disk-hit
# count is the measurement, so warming any entry before it would
# inflate the numbers. /v2/stats compiles nothing.
start_server() {
	"$tmp/thermflowd" -addr "127.0.0.1:$port" -cache-dir "$cache" >>"$tmp/thermflowd.log" 2>&1 &
	spid=$!
	i=0
	until curl -sf "$base/v2/stats" >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -ge 50 ] && { echo "thermflowd did not come up"; cat "$tmp/thermflowd.log"; exit 1; }
		sleep 0.2
	done
}

stop_server() {
	kill "$spid" 2>/dev/null || true
	wait "$spid" 2>/dev/null || true
	spid=""
}

start_server
"$tmp/experiments" -addr "$base" | tee "$tmp/run1.txt" | tail -1

# Hard restart: the memory tier dies with the process; only the disk
# tier survives.
stop_server
start_server

"$tmp/experiments" -addr "$base" | tee "$tmp/run2.txt" | tail -1

field() { tail -1 "$1" | sed -n "s/.*[ =]$2=\([0-9]*\).*/\1/p"; }
run1_ms="$(field "$tmp/run1.txt" wall_ms)"
run2_ms="$(field "$tmp/run2.txt" wall_ms)"
jobs="$(field "$tmp/run2.txt" jobs)"
cached2="$(field "$tmp/run2.txt" cached)"
disk_hits="$(field "$tmp/run2.txt" disk_hits)"

[ -n "$disk_hits" ] || { echo "could not parse disk_hits from run 2"; exit 1; }

# Acceptance: >= 90% of the repeated sweep served from the disk tier,
# >= 5x faster than the cold run.
awk -v hits="$disk_hits" -v jobs="$jobs" 'BEGIN { exit !(hits >= 0.9 * jobs) }' || {
	echo "restart-warm run served only $disk_hits/$jobs jobs from disk (need >= 90%)"
	exit 1
}
awk -v a="$run1_ms" -v b="$run2_ms" 'BEGIN { exit !(b > 0 && a / b >= 5) }' || {
	echo "restart-warm speedup $run1_ms ms -> $run2_ms ms is below 5x"
	exit 1
}

cat > "$out" <<EOF
{
  "jobs_per_run": $jobs,
  "cold_run_ms": $run1_ms,
  "restart_warm_run_ms": $run2_ms,
  "restart_warm_cached": $cached2,
  "restart_warm_disk_hits": $disk_hits,
  "disk_hit_rate": $(awk -v h="$disk_hits" -v j="$jobs" 'BEGIN { printf "%.3f", (j > 0 ? h / j : 0) }'),
  "speedup_restart_warm": $(awk -v a="$run1_ms" -v b="$run2_ms" 'BEGIN { printf "%.2f", (b > 0 ? a / b : 0) }')
}
EOF
echo "wrote $out"
cat "$out"
