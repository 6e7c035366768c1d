#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload solve-uniform --seed 1 --seconds 25 --trace 0
#
# Every build artefact (compiler cache, binary, per-layer ledger) stays
# under the build directory, $CARGO_TARGET_DIR when set and
# .bench_build otherwise, relative to the checkout root. A tree without
# the mpss sources beside perfbench/ fails to build, and the script
# exits non-zero before printing any result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/home"

# Keep the toolchain's caches, temporary files and telemetry inside the
# build directory and off the network.
env GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	go -C "$root/perfbench" build -o "$out/perfbench" .

cd "$root"
exec "$out/perfbench" --out "$out/ledger" "$@"
