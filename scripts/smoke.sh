#!/bin/sh
# Process-level smoke test for the two daemon binaries. Every cluster
# behaviour is asserted in Go by internal/e2etest, which assembles the
# same daemons in-process through internal/daemon from the same flag
# arguments. What only real processes can show is main itself: argv
# parsing, the -debug-addr listener, SIGHUP reloads and a clean exit on
# SIGTERM.
#
# Builds thermflowd and thermflowgate, starts two backends and one
# gateway with every file- and listener-bearing flag set, runs one
# authenticated job through the gateway to done, sends SIGHUP to all
# three processes, then SIGTERM, and requires each to exit 0.
#
# Usage: sh scripts/smoke.sh   (PORT sets the base port, default 18431;
# the script uses PORT..PORT+2 and PORT+10..PORT+12)
set -eu

port="${PORT:-18431}"
gw="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
pids=""
trap 'for p in $pids; do kill "$p" 2>/dev/null || true; done; rm -rf "$tmp"' EXIT

fail() {
	echo "smoke: $*"
	for f in "$tmp"/*.log; do
		echo "--- $f"
		cat "$f"
	done
	exit 1
}

go build -o "$tmp/" ./cmd/thermflowd ./cmd/thermflowgate

token="smoke-$$-token"
printf '# smoke tokens\n%s\n' "$token" >"$tmp/tokens"
printf '{"tenants": [{"name": "smoke", "class": "standard", "tokens": ["%s"]}]}\n' "$token" >"$tmp/quotas.json"

backends=""
for i in 1 2; do
	"$tmp/thermflowd" -addr "127.0.0.1:$((port + i))" \
		-cache-dir "$tmp/cache$i" -job-log-dir "$tmp/joblog$i" \
		-auth-token-file "$tmp/tokens" -quota-file "$tmp/quotas.json" -trust-tenant-header \
		-debug-addr "127.0.0.1:$((port + 10 + i))" >"$tmp/backend$i.log" 2>&1 &
	pids="$pids $!"
	backends="$backends,http://127.0.0.1:$((port + i))"
done
"$tmp/thermflowgate" -addr "127.0.0.1:$port" -backends "${backends#,}" \
	-state-dir "$tmp/gwstate" -auth-token-file "$tmp/tokens" -quota-file "$tmp/quotas.json" \
	-debug-addr "127.0.0.1:$((port + 10))" >"$tmp/gateway.log" 2>&1 &
pids="$pids $!"

authcurl() { curl -s -H "Authorization: Bearer $token" "$@"; }

i=0
until authcurl "$gw/gateway/backends" 2>/dev/null | grep -q '"ring_backends": *2'; do
	i=$((i + 1))
	[ "$i" -ge 100 ] && fail "gateway pool did not come up"
	sleep 0.1
done
echo "smoke: gateway up, 2 backends on the ring"

code="$(curl -s -o /dev/null -w '%{http_code}' "$gw/v2/kernels")"
[ "$code" = "401" ] || fail "unauthenticated request -> $code, want 401"

id="$(authcurl -X POST -H 'Content-Type: application/json' -d '{"kernel":"matmul"}' "$gw/v2/jobs" |
	sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ -n "$id" ] || fail "submit returned no job id"
state=""
i=0
until [ "$state" = "done" ]; do
	i=$((i + 1))
	[ "$i" -ge 30 ] && fail "job $id never finished (state=$state)"
	state="$(authcurl "$gw/v2/jobs/$id/wait?timeout_ms=2000" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
	case "$state" in failed | expired) fail "job $id $state" ;; esac
done
echo "smoke: authenticated job $id done through the gateway"

for p in $((port + 10)) $((port + 11)) $((port + 12)); do
	curl -s "http://127.0.0.1:$p/metrics" | grep -q 'thermflow_http_requests_total' ||
		fail "debug listener 127.0.0.1:$p serves no metrics"
done
echo "smoke: debug listeners serve /metrics"

# SIGHUP re-reads the token and quota files; each process logs both
# reloads and keeps serving.
# shellcheck disable=SC2086
kill -HUP $pids
for f in "$tmp"/backend1.log "$tmp"/backend2.log "$tmp"/gateway.log; do
	i=0
	until [ "$(grep -c 'SIGHUP: reloaded' "$f")" -ge 2 ]; do
		i=$((i + 1))
		[ "$i" -ge 50 ] && fail "$f: SIGHUP did not reload both files"
		sleep 0.1
	done
done
code="$(authcurl -o /dev/null -w '%{http_code}' "$gw/v2/jobs/$id")"
[ "$code" = "200" ] || fail "job read after SIGHUP -> $code, want 200"
echo "smoke: SIGHUP reloaded tokens and quotas on all three processes"

# shellcheck disable=SC2086
kill -TERM $pids
for p in $pids; do
	wait "$p" || fail "process $p exited with status $? after SIGTERM"
done
pids=""
echo "smoke: OK (real binaries: flags, debug listeners, SIGHUP reload, clean SIGTERM exit)"
