#!/usr/bin/env bash
# Builds thermbench and the two daemons it drives (thermflowd,
# thermflowgate) from this checkout, then runs thermbench with the
# given arguments. Run it from the repository root:
#
#	bash bench/run.sh --workload kernel-sweep --seed 1 --seconds 15 --trace 0
#	bash bench/run.sh -runs 3
#	bash bench/run.sh compare bench/out/1/report.json other/report.json
#
# Everything the build writes (binaries, Go build cache, Go's own
# config and telemetry) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

go build -o "$build/bin/" ./cmd/thermflowd ./cmd/thermflowgate
(cd bench && go build -o "$build/bin/thermbench" ./thermbench)
exec "$build/bin/thermbench" -root "$root" -bin "$build/bin" "$@"
