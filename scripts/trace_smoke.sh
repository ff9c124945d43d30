#!/bin/sh
# CI smoke test for the distributed tracing plane, over real processes:
# two thermflowd backends behind one thermflowgate. A region job
# submitted under a client-minted X-Thermflow-Trace header must come
# back with one stitched timeline — gateway coordination and round
# spans plus region-solve spans recorded by BOTH backends — all under
# the client's trace ID (cross-process propagation, not per-process
# traces). Then a short thermload sweep must report its slowest
# requests' trace IDs, and the slowest v2 job must resolve through the
# gateway to a timeline carrying that exact trace ID. Fast (<60 s).
set -eu

port="${PORT:-18487}"
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
go build -o "$tmp/tdfa" ./cmd/tdfa
go build -o "$tmp/thermload" ./cmd/thermload

"$tmp/thermflowd" -addr "127.0.0.1:$p1" >"$tmp/b1.log" 2>&1 &
bpid1=$!
"$tmp/thermflowd" -addr "127.0.0.1:$p2" >"$tmp/b2.log" 2>&1 &
bpid2=$!
"$tmp/thermflowgate" -addr "127.0.0.1:$port" -backends "$b1,$b2" \
	-state-dir "$tmp/gwstate" \
	-health-interval 300ms -eject-after 2 >"$tmp/gw.log" 2>&1 &
gpid=$!

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

# --- 1. Region job under a client-minted trace -----------------------
tid="00000000000000000000000000abcdef"
span="0000000000abcdef"
"$tmp/tdfa" -mega 8,2 -seed 7 -emit >"$tmp/mega.ir"
src="$(awk 'BEGIN{ORS="\\n"} {gsub(/\\/, "\\\\"); gsub(/"/, "\\\""); print}' "$tmp/mega.ir")"
# σ-slack mode: the fixpoint converges in a handful of rounds, so the
# whole timeline (coordination span included) fits the per-job span
# bound — exact mode's hundreds of rounds would overflow it, which is
# its own documented behavior (earliest rounds + drop count), not what
# this smoke asserts. 16 regions keep enough ring keys in play that
# both backends own some.
printf '{"kind":"region","program":"%s","options":{"solver":"region","regions":16,"region_delta":0.02}}' \
	"$src" >"$tmp/region.json"

curl -s -D "$tmp/headers.txt" -X POST -H 'Content-Type: application/json' \
	-H "X-Thermflow-Trace: $tid-$span" \
	--data-binary "@$tmp/region.json" "$gw/v2/jobs" >"$tmp/fanout.json"
grep -q '"state": *"done"' "$tmp/fanout.json" ||
	{ echo "smoke: region job did not finish done:"; cat "$tmp/fanout.json"; exit 1; }

# The response continues the client's trace with a fresh server span.
grep -i "x-thermflow-trace: *$tid-" "$tmp/headers.txt" >/dev/null ||
	{ echo "smoke: response did not continue the client trace:"; cat "$tmp/headers.txt"; exit 1; }
grep -i "x-thermflow-trace: *$tid-$span" "$tmp/headers.txt" >/dev/null &&
	{ echo "smoke: gateway echoed the client's span ID instead of minting its own"; exit 1; }
echo "smoke: region job done, response continues client trace $tid"

# --- 2. Stitched timeline spans both backends ------------------------
id="$(sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p' "$tmp/fanout.json" | head -1)"
[ -n "$id" ] || { echo "smoke: region job status has no id"; exit 1; }
curl -s "$gw/v2/jobs/$id/trace" >"$tmp/trace.json"

grep -q "\"trace_id\": *\"$tid\"" "$tmp/trace.json" ||
	{ echo "smoke: stitched timeline lost the client trace ID:"; cat "$tmp/trace.json"; exit 1; }
for phase in region.coordinate region.round region.solve; do
	grep -q "\"name\": *\"$phase\"" "$tmp/trace.json" ||
		{ echo "smoke: timeline has no $phase span"; cat "$tmp/trace.json"; exit 1; }
done
nbackends="$(sed -n 's/.*"backend": *"\([^"]*\)".*/\1/p' "$tmp/trace.json" | sort -u | wc -l)"
[ "$nbackends" -ge 2 ] ||
	{ echo "smoke: region.solve spans from $nbackends distinct backends, want 2"; cat "$tmp/trace.json"; exit 1; }
echo "smoke: one timeline, region.solve spans from $nbackends backends under trace $tid"

# --- 3. thermload reports slowest-request traces that resolve --------
"$tmp/thermload" -target "$gw" -unique \
	-stages 20 -stage-duration 2s -kernels dot,saxpy \
	-out "$tmp/load.json" -check >"$tmp/load.log" 2>&1 ||
	{ echo "smoke: thermload run failed:"; cat "$tmp/load.log"; exit 1; }
grep -q '"slowest":' "$tmp/load.json" ||
	{ echo "smoke: load report has no slowest block"; cat "$tmp/load.json"; exit 1; }
ltid="$(sed -n 's/.*"trace_id": *"\([0-9a-f]*\)".*/\1/p' "$tmp/load.json" | head -1)"
ljid="$(sed -n 's/.*"job_id": *"\([0-9a-f]*\)".*/\1/p' "$tmp/load.json" | head -1)"
[ -n "$ltid" ] && [ -n "$ljid" ] ||
	{ echo "smoke: slowest entry lacks trace_id/job_id"; cat "$tmp/load.json"; exit 1; }

curl -s "$gw/v2/jobs/$ljid/trace" >"$tmp/slow_trace.json"
grep -q "\"trace_id\": *\"$ltid\"" "$tmp/slow_trace.json" ||
	{ echo "smoke: slowest job $ljid timeline does not carry trace $ltid:"; cat "$tmp/slow_trace.json"; exit 1; }
grep -q '"name": *"job.run"' "$tmp/slow_trace.json" ||
	{ echo "smoke: slowest job timeline has no job.run span:"; cat "$tmp/slow_trace.json"; exit 1; }
echo "smoke: thermload slowest request (trace $ltid) resolves to job $ljid's timeline"

echo "smoke: OK (cross-process trace propagation, stitched region timeline, slowest-trace resolution)"
