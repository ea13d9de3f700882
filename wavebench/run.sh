#!/usr/bin/env bash
# Builds wavebench from the checkout it is run in and runs it with the
# given flags; run it from the root of the checkout:
#
#   bash wavebench/run.sh --workload churn-giant --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traces stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The
# benchmark module reaches the repository's packages through a replace
# directive, so outside a checkout of the whole repository the build
# fails and the script exits non-zero.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
if [ -z "${WAVEBENCH_COMMIT:-}" ] && [ -e .git ]; then
	WAVEBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	export WAVEBENCH_COMMIT
fi

go -C wavebench build -buildvcs=false -o "$out/wavebench" .
exec "$out/wavebench" --trace-out "$out/wavebench-trace" "$@"
