#!/usr/bin/env bash
# Builds the benchmark and the CLIs it drives from the checkout's sources,
# then runs it. Every build artifact, cache and temporary file stays under
# .bench_build/ in the checkout root. Arguments pass through to the
# benchmark, e.g.:
#
#   bash bench/run.sh --workload figures-quick --seed 1 --seconds 22 --trace 0
#   bash bench/run.sh --seed 1 --out result.json     # every workload
#   bash bench/run.sh --compare parent/ change/      # A/B verdicts
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/flexserve || ! -d cmd/figures || ! -d internal ]]; then
	echo "bench: $root holds no repository sources (go.mod, cmd/, internal/); nothing to measure" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
# Offline, hermetic builds: no toolchain or module downloads, no user-level
# go env, caches and the go command's telemetry counters inside the
# checkout.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"

go build -o "$out/bin/flexserve" ./cmd/flexserve
go build -o "$out/bin/figures" ./cmd/figures
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" --bin "$out/bin" --tmp "$out/tmp" "$@"
