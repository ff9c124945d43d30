#!/bin/sh
# CI smoke test for the job API and the middleware stack: start
# thermflowd with bearer-token auth, then assert 401 without a token,
# the submit -> poll -> done lifecycle, duplicate-submit convergence on
# one job ID, the ID-keyed batch stream, and a 429 (with Retry-After)
# from a second instance whose quota file holds only a tight default
# profile. Fast (<30 s).
set -eu

port="${PORT:-18437}"
port2=$((port + 1))
base="http://127.0.0.1:$port"
base2="http://127.0.0.1:$port2"
token="smoke-$$-token"
tmp="$(mktemp -d)"
spid=""
spid2=""
trap 'kill "${spid:-}" "${spid2:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

printf '# smoke tokens\n%s\n' "$token" >"$tmp/tokens"
go build -o "$tmp/thermflowd" ./cmd/thermflowd

"$tmp/thermflowd" -addr "127.0.0.1:$port" -auth-token-file "$tmp/tokens" \
	>"$tmp/thermflowd.log" 2>&1 &
spid=$!

# curl helpers: code prints only the status, auth adds the bearer token.
code() { curl -s -o /dev/null -w '%{http_code}' "$@"; }
authcurl() { curl -s -H "Authorization: Bearer $token" "$@"; }

# Readiness doubles as the 401 assertion: an unauthenticated probe must
# be answered (not refused) and rejected.
i=0
until [ "$(code "$base/v2/stats" || true)" = "401" ]; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && { echo "thermflowd did not come up"; cat "$tmp/thermflowd.log"; exit 1; }
	sleep 0.2
done
echo "smoke: unauthenticated request -> 401"

wrong="$(code -H 'Authorization: Bearer wrong-token' "$base/v2/kernels")"
[ "$wrong" = "401" ] || { echo "smoke: wrong token -> $wrong, want 401"; exit 1; }

ok="$(code -H "Authorization: Bearer $token" "$base/v2/kernels")"
[ "$ok" = "200" ] || { echo "smoke: authed kernels -> $ok, want 200"; exit 1; }
echo "smoke: bearer token accepted -> 200"

# Submit a job and verify the handle carries an ID.
body='{"kernel":"matmul","options":{"policy":"chessboard"}}'
submit="$(authcurl -X POST -H 'Content-Type: application/json' -d "$body" "$base/v2/jobs")"
id="$(printf '%s' "$submit" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ -n "$id" ] || { echo "smoke: submit returned no job id: $submit"; exit 1; }
echo "smoke: submitted job $id"

# Long-poll to done.
state=""
i=0
while [ "$state" != "done" ]; do
	i=$((i + 1))
	[ "$i" -ge 30 ] && { echo "smoke: job never finished (state=$state)"; exit 1; }
	wait_body="$(authcurl "$base/v2/jobs/$id/wait?timeout_ms=2000")"
	state="$(printf '%s' "$wait_body" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
	case "$state" in failed|expired) echo "smoke: job $state: $wait_body"; exit 1 ;; esac
done
echo "smoke: job reached state done"

# Duplicate submit converges on the same ID (200, not a new job).
dup="$(authcurl -X POST -H 'Content-Type: application/json' -d "$body" "$base/v2/jobs")"
dupid="$(printf '%s' "$dup" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ "$dupid" = "$id" ] || { echo "smoke: duplicate submit minted new id $dupid != $id"; exit 1; }
echo "smoke: duplicate submit converged on $id"

# The v2 batch stream is ID-keyed NDJSON: 3 jobs -> 3 lines, each with
# an id, the duplicate pair sharing one.
batch='{"jobs":[{"kernel":"dot"},{"kernel":"fir"},{"kernel":"dot"}]}'
stream="$(authcurl -X POST -H 'Content-Type: application/json' -d "$batch" "$base/v2/batch")"
lines="$(printf '%s\n' "$stream" | grep -c '"id"')"
[ "$lines" = "3" ] || { echo "smoke: batch streamed $lines id-keyed lines, want 3: $stream"; exit 1; }
distinct="$(printf '%s\n' "$stream" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p' | sort -u | wc -l | tr -d ' ')"
[ "$distinct" = "2" ] || { echo "smoke: batch ids not deduplicated (distinct=$distinct)"; exit 1; }
echo "smoke: batch stream id-keyed (3 items, 2 distinct jobs)"

# A tightly limited instance answers a burst with 429 + Retry-After. A
# global per-client limit is a quota file holding only a default
# profile.
printf '{"default":\n  {"rate": 1, "burst": 2}}\n' >"$tmp/quotas.json"
"$tmp/thermflowd" -addr "127.0.0.1:$port2" -quota-file "$tmp/quotas.json" \
	>"$tmp/thermflowd2.log" 2>&1 &
spid2=$!
i=0
until [ "$(code "$base2/v2/stats" || true)" = "200" ]; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && { echo "rate-limited thermflowd did not come up"; cat "$tmp/thermflowd2.log"; exit 1; }
	sleep 0.2
done
got429=""
for _ in 1 2 3 4 5; do
	hdr="$(curl -s -D - -o /dev/null "$base2/v2/kernels")"
	if printf '%s' "$hdr" | grep -q "^HTTP/.* 429"; then
		printf '%s' "$hdr" | grep -qi '^Retry-After:' ||
			{ echo "smoke: 429 without Retry-After"; exit 1; }
		got429=yes
		break
	fi
done
[ "$got429" = "yes" ] || { echo "smoke: burst never hit the rate limit"; exit 1; }
echo "smoke: default-profile quota -> 429 with Retry-After"

echo "smoke: OK (job lifecycle, auth, quota)"
