#!/bin/sh
# CI smoke test for the durable job plane: start one thermflowd with
# -job-log-dir and -cache-dir, submit the 99-job sweep through
# POST /v2/jobs, wait for every job, SIGKILL the daemon (no orderly
# shutdown: the WAL tail is whatever fsync left behind), restart it on
# the same directories, and assert every pre-crash job ID resolves to
# the same terminal result. Then the gateway half: with R=1
# replication, kill a job's owning backend permanently and assert the
# gateway still answers the ID from the ring successor's replica
# shelf. Fast (<60 s).
set -eu

port="${PORT:-18461}"
p1=$((port + 1))
p2=$((port + 2))
gwport=$((port + 3))
base="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
dpid=""
gpid=""
bpid1=""
bpid2=""
# dpid empties mid-script; loop so a blank never aborts the kill.
trap 'for p in $dpid $gpid $bpid1 $bpid2; do kill "$p" 2>/dev/null || true; done; rm -rf "$tmp"' EXIT

go build -o "$tmp/thermflowd" ./cmd/thermflowd
go build -o "$tmp/thermflowgate" ./cmd/thermflowgate

start_daemon() {
	"$tmp/thermflowd" -addr "127.0.0.1:$port" \
		-cache-dir "$tmp/cache" -job-log-dir "$tmp/joblog" \
		-job-snapshot-every 32 >>"$tmp/d.log" 2>&1 &
	dpid=$!
	i=0
	until curl -s "$base/v2/stats" >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -ge 50 ] && { echo "thermflowd did not come up"; cat "$tmp/d.log"; exit 1; }
		sleep 0.2
	done
}

start_daemon
echo "smoke: thermflowd up with -job-log-dir"

# 99-job sweep, one POST /v2/jobs each, so every job gets a durable ID.
kernels="dot saxpy fir matmul bubblesort histogram checksum scaledsum transpose prefixsum fib"
: >"$tmp/ids.txt"
for k in $kernels; do
	for regs in 56 57 58 59 60 61 62 63 64; do
		body="{\"kernel\":\"$k\",\"options\":{\"num_regs\":$regs}}"
		id="$(curl -s -X POST -H 'Content-Type: application/json' -d "$body" "$base/v2/jobs" |
			sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
		[ -n "$id" ] || { echo "smoke: submit $k/$regs returned no id"; exit 1; }
		echo "$id" >>"$tmp/ids.txt"
	done
done
nids="$(sort -u "$tmp/ids.txt" | wc -l | tr -d ' ')"
[ "$nids" = "99" ] || { echo "smoke: $nids distinct ids, want 99"; exit 1; }
echo "smoke: 99 jobs submitted"

# Wait for each to finish, recording the terminal state + energy.
: >"$tmp/before.txt"
while read -r id; do
	st=""
	i=0
	while [ "$st" != "done" ] && [ "$st" != "failed" ]; do
		i=$((i + 1))
		[ "$i" -ge 60 ] && { echo "smoke: job $id never finished (state=$st)"; exit 1; }
		st="$(curl -s "$base/v2/jobs/$id/wait?timeout_ms=2000" |
			sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
	done
	energy="$(curl -s "$base/v2/jobs/$id" | sed -n 's/.*"energy": *\([0-9.e+-]*\).*/\1/p')"
	echo "$id $st $energy" >>"$tmp/before.txt"
done <"$tmp/ids.txt"
ndone="$(grep -c ' done ' "$tmp/before.txt" || true)"
echo "smoke: all 99 jobs terminal ($ndone done)"

# The crash: SIGKILL, no goodbye. Whatever the WAL holds is the truth.
kill -9 "$dpid" 2>/dev/null || true
wait "$dpid" 2>/dev/null || true
dpid=""
echo "smoke: thermflowd SIGKILLed"

start_daemon
echo "smoke: thermflowd restarted on the same -job-log-dir"

# Every pre-crash ID must resolve to the identical terminal result.
: >"$tmp/after.txt"
while read -r id st energy; do
	code="$(curl -s -o "$tmp/one.json" -w '%{http_code}' "$base/v2/jobs/$id")"
	[ "$code" = "200" ] || {
		echo "smoke: job $id vanished across restart (HTTP $code)"
		cat "$tmp/d.log"
		exit 1
	}
	nst="$(sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' "$tmp/one.json")"
	nenergy="$(sed -n 's/.*"energy": *\([0-9.e+-]*\).*/\1/p' "$tmp/one.json")"
	[ "$nst" = "$st" ] || { echo "smoke: job $id state $st -> $nst across restart"; exit 1; }
	[ "$nenergy" = "$energy" ] || { echo "smoke: job $id energy $energy -> $nenergy across restart"; exit 1; }
	echo "$id $nst $nenergy" >>"$tmp/after.txt"
done <"$tmp/before.txt"
cmp -s "$tmp/before.txt" "$tmp/after.txt" ||
	{ echo "smoke: result tables differ across restart"; diff "$tmp/before.txt" "$tmp/after.txt" || true; exit 1; }
echo "smoke: all 99 job IDs resolve identically after the crash"
kill "$dpid" 2>/dev/null || true
wait "$dpid" 2>/dev/null || true
dpid=""

# Gateway replication: two backends, R=1. Run a job to done through
# the gateway, kill whichever backend owns it — permanently — and the
# gateway must still answer the ID from the successor's replica shelf.
b1="http://127.0.0.1:$p1"
b2="http://127.0.0.1:$p2"
gw="http://127.0.0.1:$gwport"
"$tmp/thermflowd" -addr "127.0.0.1:$p1" >"$tmp/b1.log" 2>&1 &
bpid1=$!
"$tmp/thermflowd" -addr "127.0.0.1:$p2" >"$tmp/b2.log" 2>&1 &
bpid2=$!
"$tmp/thermflowgate" -addr "127.0.0.1:$gwport" -backends "$b1,$b2" \
	-replicas 1 -health-interval 300ms -eject-after 2 >"$tmp/gw.log" 2>&1 &
gpid=$!
i=0
until curl -s "$gw/gateway/backends" 2>/dev/null | grep -q '"ring_backends": *2'; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && { echo "smoke: gateway pool did not come up"; cat "$tmp/gw.log"; exit 1; }
	sleep 0.2
done

body='{"kernel":"matmul","options":{"policy":"chessboard"}}'
id="$(curl -s -X POST -H 'Content-Type: application/json' -d "$body" "$gw/v2/jobs" |
	sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ -n "$id" ] || { echo "smoke: submit via gateway returned no id"; exit 1; }
st=""
i=0
while [ "$st" != "done" ]; do
	i=$((i + 1))
	[ "$i" -ge 30 ] && { echo "smoke: gateway job never finished (state=$st)"; exit 1; }
	st="$(curl -s "$gw/v2/jobs/$id/wait?timeout_ms=2000" |
		sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')"
done

# Which backend owns it? Kill that one; the replica lives on the other.
owner=""
if [ "$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Probe: owner' "$b1/v2/jobs/$id")" = "200" ] &&
	! curl -s -i "$b1/v2/jobs/$id" | grep -qi '^x-thermflow-replica:'; then
	owner="$bpid1"
else
	owner="$bpid2"
fi
# Give the async replica push a moment to land before the kill.
sleep 1
kill -9 "$owner" 2>/dev/null || true
i=0
until curl -s "$gw/gateway/backends" | grep -q '"ring_backends": *1'; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && { echo "smoke: dead owner never ejected"; exit 1; }
	sleep 0.2
done

resp="$(curl -s -i "$gw/v2/jobs/$id")"
printf '%s' "$resp" | grep -q '^HTTP/[0-9.]* 200' ||
	{ echo "smoke: job $id lost with its owner dead:"; printf '%s\n' "$resp"; cat "$tmp/gw.log"; exit 1; }
printf '%s' "$resp" | grep -qi '^x-thermflow-replica:' ||
	{ echo "smoke: answer for $id not served from the replica shelf:"; printf '%s\n' "$resp"; exit 1; }
printf '%s' "$resp" | grep -q '"state": *"done"' ||
	{ echo "smoke: replica answer not done:"; printf '%s\n' "$resp"; exit 1; }
echo "smoke: gateway answered the dead owner's job from the ring successor (R=1)"

echo "smoke: OK (WAL replay across SIGKILL, replica failover)"
