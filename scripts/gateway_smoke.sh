#!/bin/sh
# CI smoke test for thermflowgate, the consistent-hashing shard
# gateway: start two thermflowd backends and one gateway, run the
# 99-job sweep through the gateway (asserting it spread across both
# shards), exercise ID-routed status reads, then run a second 99-job
# sweep and kill one backend in the middle of it — the sweep must
# still complete with every job ID answered exactly once, courtesy of
# the gateway's failover re-dispatch. Finally, drain a backend and
# restart the gateway on the same -state-dir: the drain decision must
# survive the restart. Fast (<60 s).
set -eu

port="${PORT:-18447}"
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
go build -o "$tmp/experiments" ./cmd/experiments

"$tmp/thermflowd" -addr "127.0.0.1:$p1" >"$tmp/b1.log" 2>&1 &
bpid1=$!
"$tmp/thermflowd" -addr "127.0.0.1:$p2" >"$tmp/b2.log" 2>&1 &
bpid2=$!
"$tmp/thermflowgate" -addr "127.0.0.1:$port" -backends "$b1,$b2" \
	-state-dir "$tmp/gwstate" \
	-health-interval 300ms -eject-after 2 >"$tmp/gw.log" 2>&1 &
gpid=$!

# Readiness: the gateway is up with both backends on the ring.
i=0
until curl -s "$gw/gateway/backends" 2>/dev/null | grep -q '"ring_backends": *2'; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && {
		echo "gateway pool did not come up"
		cat "$tmp/gw.log" "$tmp/b1.log" "$tmp/b2.log" 2>/dev/null
		exit 1
	}
	sleep 0.2
done
echo "smoke: gateway up, 2 backends on the ring"

# The 99-job sweep through the gateway.
"$tmp/experiments" -addr "$gw" >"$tmp/sweep1.txt"
summary="$(tail -1 "$tmp/sweep1.txt")"
echo "smoke: $summary"
printf '%s' "$summary" | grep -q "jobs=99 errors=0" ||
	{ echo "smoke: sweep through gateway failed: $summary"; exit 1; }

# Both shards compiled part of it.
for b in "$b1" "$b2"; do
	misses="$(curl -s "$b/v2/stats" | sed -n 's/.*"misses": *\([0-9]*\).*/\1/p' | head -1)"
	[ -n "$misses" ] && [ "$misses" -gt 0 ] ||
		{ echo "smoke: backend $b compiled nothing (misses=$misses) - no sharding?"; exit 1; }
done
echo "smoke: sweep spread across both shards"

# ID-routed status: submit via the gateway, wait to done, then resolve
# the ID through the gateway — it must find the job on whichever
# backend owns it, and exactly one backend owns it. (The ring
# successor may also answer from its replica shelf; those answers are
# marked X-Thermflow-Replica and are copies, not ownership.)
body='{"kernel":"matmul","options":{"policy":"chessboard"}}'
id="$(curl -s -X POST -H 'Content-Type: application/json' -d "$body" "$gw/v2/jobs" |
	sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p')"
[ -n "$id" ] || { echo "smoke: submit via gateway returned no id"; exit 1; }
state=""
i=0
while [ "$state" != "done" ]; do
	i=$((i + 1))
	[ "$i" -ge 30 ] && { echo "smoke: job never finished (state=$state)"; exit 1; }
	state="$(curl -s "$gw/v2/jobs/$id/wait?timeout_ms=2000" |
		sed -n 's/.*"state": *"\([a-z]*\)".*/\1p/p' | sed 's/p$//')"
done
gwread="$(curl -s -o /dev/null -w '%{http_code}' "$gw/v2/jobs/$id")"
[ "$gwread" = "200" ] || { echo "smoke: GET via gateway -> $gwread, want 200"; exit 1; }
holders=0
for b in "$b1" "$b2"; do
	curl -s -i "$b/v2/jobs/$id" >"$tmp/hold.txt"
	grep -q '^HTTP/[0-9.]* 200' "$tmp/hold.txt" || continue
	grep -qi '^x-thermflow-replica:' "$tmp/hold.txt" && continue
	holders=$((holders + 1))
done
[ "$holders" = "1" ] || { echo "smoke: job $id owned by $holders backends, want exactly 1"; exit 1; }
echo "smoke: GET /v2/jobs/{id} resolved on the owning shard"

# Second sweep, cold, with one backend killed mid-flight: build a
# 99-job matrix as an ID-keyed v2 batch so exactly-once is directly
# countable from the merged stream. no_warm_start + small kappa + a
# tight delta slow each compile to hundreds of raw Fig. 2 sweeps,
# keeping the batch in flight for seconds (~3 s on one CI core) so the
# kill at 0.2 s lands well inside the stream.
curl -s -X DELETE "$gw/v2/cache" >/dev/null
kernels="dot saxpy fir matmul bubblesort histogram checksum scaledsum transpose prefixsum fib"
jobs=""
for k in $kernels; do
	for regs in 56 57 58 59 60 61 62 63 64; do
		jobs="$jobs{\"kernel\":\"$k\",\"options\":{\"num_regs\":$regs,\"no_warm_start\":true,\"kappa\":5,\"max_iter\":3000,\"delta\":0.0005}},"
	done
done
printf '{"jobs":[%s]}' "${jobs%,}" >"$tmp/batch.json"
njobs="$(grep -o '"kernel"' "$tmp/batch.json" | wc -l | tr -d ' ')"
[ "$njobs" = "99" ] || { echo "smoke: built $njobs jobs, want 99"; exit 1; }

curl -s -N -X POST -H 'Content-Type: application/json' \
	--data-binary "@$tmp/batch.json" "$gw/v2/batch" >"$tmp/stream.ndjson" &
cpid=$!
sleep 0.2
kill -9 "$bpid2" 2>/dev/null || true
echo "smoke: killed backend 2 mid-sweep"
wait "$cpid" || { echo "smoke: batch stream curl failed"; exit 1; }

lines="$(grep -c '"id"' "$tmp/stream.ndjson" || true)"
distinct="$(sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p' "$tmp/stream.ndjson" | sort -u | wc -l | tr -d ' ')"
errors="$(grep -c '"error"' "$tmp/stream.ndjson" || true)"
[ "$lines" = "99" ] || { echo "smoke: $lines items streamed, want 99 (exactly once)"; cat "$tmp/gw.log"; exit 1; }
[ "$distinct" = "99" ] || { echo "smoke: $distinct distinct ids, want 99"; exit 1; }
[ "$errors" = "0" ] || { echo "smoke: $errors items errored:"; grep '"error"' "$tmp/stream.ndjson"; exit 1; }
grep -q "re-dispatching" "$tmp/gw.log" ||
	{ echo "smoke: the kill landed after the stream finished - failover was not exercised (machine too fast? raise max_iter)"; cat "$tmp/gw.log"; exit 1; }
echo "smoke: 99 jobs answered exactly once across the kill (99 items, 99 ids, 0 errors, failover re-dispatched)"

# The gateway noticed: backend 2 is off the ring.
i=0
until curl -s "$gw/gateway/backends" | grep -q '"ring_backends": *1'; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && { echo "smoke: dead backend never ejected"; curl -s "$gw/gateway/backends"; exit 1; }
	sleep 0.2
done
echo "smoke: dead backend ejected from the ring"

# Drain survives a gateway restart: drain backend 1, bounce the
# gateway on the same -state-dir, and the restarted gateway must still
# hold backend 1 off the assignment ring.
curl -s -o /dev/null -X POST "$gw/gateway/drain?backend=$b1"
curl -s "$gw/gateway/backends" | grep -q '"draining": *true' ||
	{ echo "smoke: drain did not register"; curl -s "$gw/gateway/backends"; exit 1; }
kill "$gpid" 2>/dev/null || true
wait "$gpid" 2>/dev/null || true
"$tmp/thermflowgate" -addr "127.0.0.1:$port" -backends "$b1,$b2" \
	-state-dir "$tmp/gwstate" \
	-health-interval 300ms -eject-after 2 >>"$tmp/gw.log" 2>&1 &
gpid=$!
i=0
until curl -s "$gw/gateway/backends" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && { echo "smoke: gateway did not restart"; cat "$tmp/gw.log"; exit 1; }
	sleep 0.2
done
curl -s "$gw/gateway/backends" | grep -q '"draining": *true' ||
	{ echo "smoke: drain forgotten across gateway restart"; curl -s "$gw/gateway/backends"; exit 1; }
echo "smoke: drained backend stayed drained across the gateway restart"

echo "smoke: OK (gateway sharding, ID routing, mid-sweep failover, durable drain)"
