#!/usr/bin/env bash
# Builds crewbench inside the checkout and runs it with the given arguments:
#
#   bash bench/run.sh --workload central-normal --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh -seed 1                 # all four workloads, end to end
#   bash bench/run.sh -selfcheck 5 -seed 1    # two alternating sets of runs
#
# Everything the build and the run write (Go build cache, binary, databases,
# sockets, traces) goes under .bench_build/ at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
  echo "bench/run.sh: $root holds no checkout of the repository (go.mod, internal/): nothing to benchmark" >&2
  exit 2
fi

work="$root/.bench_build"
mkdir -p "$work/tmp"
[ -f "$work/.gitignore" ] || echo '*' >"$work/.gitignore"

# Keep the toolchain's own files inside the checkout and off the network.
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config"
export GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$work/crewbench" ./crewbench)

cd "$root"
exec "$work/crewbench" "$@"
