#!/usr/bin/env bash
# Builds vodperf from the sources of this checkout and runs it with the
# given arguments, from the checkout root:
#
#   bash bench/run.sh --workload plan --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and vodperf's result files stay under
# .bench_build/ at the checkout root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [[ ! -f $root/go.mod || ! -d $root/internal ]]; then
	echo "vodperf: no vodalloc sources under $root to benchmark" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$build/bin/vodperf" ./vodperf)

cd "$root"
exec "$build/bin/vodperf" "$@"
