#!/usr/bin/env bash
# Runs every fuzz target of the module for a fixed time each, on top of
# its committed seed corpus (testdata/fuzz/<target>/ in its package). The
# targets are whatever `go test -list` reports, so a new Fuzz function
# joins without touching this script or CI. A failing input is written to
# the package's testdata/fuzz/ directory; commit it as a corpus entry once
# fixed.
#
#   scripts/fuzz.sh          # 10s per target
#   scripts/fuzz.sh 1m       # any -fuzztime value
#
# Go minimizes each new interesting input for up to -fuzzminimizetime
# (60s by default) and runs no new inputs meanwhile, so a short run spent
# most of its budget minimizing; 1s keeps it exploring.
set -euo pipefail
cd "$(dirname "$0")/.."

fuzztime="${1:-10s}"
for pkg in $(go list ./...); do
	listed="$(go test -list '^Fuzz' "$pkg")" # fails the script if the tests do not build
	for target in $(grep '^Fuzz' <<<"$listed" || true); do
		echo "== $target ($pkg, $fuzztime)"
		go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" -fuzzminimizetime 1s "$pkg"
	done
done
