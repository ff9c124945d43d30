#!/bin/sh
# CI smoke test for the persistent cache tier: start thermflowd with
# -cache-dir, run the quick sweep, kill the server, restart it over the
# same directory, run the sweep again, and assert the second run is
# served from the disk tier. Fast (<30 s) — the full measurement lives
# in scripts/bench_persist.sh.
set -eu

port="${PORT:-18433}"
base="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
cache="$tmp/cache"
spid=""
trap 'kill "${spid:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/thermflowd" ./cmd/thermflowd
go build -o "$tmp/experiments" ./cmd/experiments

start_server() {
	"$tmp/thermflowd" -addr "127.0.0.1:$port" -cache-dir "$cache" >>"$tmp/thermflowd.log" 2>&1 &
	spid=$!
	i=0
	until "$tmp/experiments" -addr "$base" -reset-cache >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -ge 50 ] && { echo "thermflowd did not come up"; cat "$tmp/thermflowd.log"; exit 1; }
		sleep 0.2
	done
}

start_server
"$tmp/experiments" -addr "$base" -quick >"$tmp/run1.txt"

# Hard restart: only the disk tier survives.
kill "$spid" 2>/dev/null || true
wait "$spid" 2>/dev/null || true
spid=""
start_server_nr() { # restart without resetting the cache
	"$tmp/thermflowd" -addr "127.0.0.1:$port" -cache-dir "$cache" >>"$tmp/thermflowd.log" 2>&1 &
	spid=$!
	i=0
	until curl -sf "$base/v2/stats" >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -ge 50 ] && { echo "thermflowd did not come back"; cat "$tmp/thermflowd.log"; exit 1; }
		sleep 0.2
	done
}
start_server_nr

"$tmp/experiments" -addr "$base" -quick >"$tmp/run2.txt"

summary="$(tail -1 "$tmp/run2.txt")"
echo "run 1: $(tail -1 "$tmp/run1.txt" | sed 's/^remote sweep: //')"
echo "run 2: $(printf '%s' "$summary" | sed 's/^remote sweep: //')"

field() { printf '%s' "$summary" | sed -n "s/.*[ =]$1=\([0-9]*\).*/\1/p"; }
errors="$(field errors)"
cached="$(field cached)"
disk_hits="$(field disk_hits)"
[ "$errors" = "0" ] || { echo "persist smoke: second run had $errors errors"; exit 1; }
[ -n "$cached" ] && [ "$cached" -gt 0 ] || {
	echo "persist smoke: restarted server reported no cache hits"; exit 1
}
[ -n "$disk_hits" ] && [ "$disk_hits" -gt 0 ] || {
	echo "persist smoke: restarted server served nothing from the disk tier"; exit 1
}
echo "persist smoke: OK ($cached cached, $disk_hits from disk after restart)"
