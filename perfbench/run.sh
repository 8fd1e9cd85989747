#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, the binary and the run's scratch files (WAL
# directories, span dumps) all stay under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/run"

# A digest of the Go sources being measured, for the result's provenance.
hash=$(find . -path ./.git -prune -o -path "./${out#"$root"/}" -prune -o \
	-type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)

GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS= \
	go -C perfbench build -o "$out/perfbench" -ldflags "-X main.sourceHash=$hash" .
exec "$out/perfbench" -scratch "$out/run" "$@"
