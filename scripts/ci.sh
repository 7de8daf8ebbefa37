#!/bin/sh
# Tier-1 verification: a gofmt check, vet (of the module and of the
# separate bench/ module, whose vodperf program calls dozens of internal
# names), build, tests, a shuffled race pass, a
# pinned-staticcheck stage (skipped gracefully offline), and a
# benchmark smoke pass (one iteration each, so broken benchmarks fail CI
# without paying for measurement). The race pass covers the parallel
# sweep engine (internal/parallel) and every fan-out built on it.
# A fuzz pass runs each of the module's nine Fuzz targets (spec
# parsers, the catalog reader, the checkpoint decoder, the HTTP request
# decoders) for 5 s past its seed corpus.
# A crash-resume smoke SIGKILLs checkpointed runs mid-flight and
# requires the resumed output to be byte-identical (scripts/killresume.sh),
# after a pass over the checkpoint decoder's fuzz corpus; a
# resume-refusal smoke then requires a cluster journal to refuse a rerun
# whose catalog drifted (think times only). A cluster
# smoke plans Example 1 onto three nodes and runs a short failover
# simulation; a churn smoke drives a flash crowd through the live
# rebalancing controller; a gray smoke drives a slow disk and a
# brownout through the hedged router; an embedding smoke runs
# examples/client, which posts /v1/hit, /v1/plan, /v1/reserve and
# /v1/simulate through vodalloc.NewHTTPHandler in-process and exits
# non-zero on any non-200; a vodperf smoke builds the frozen
# benchmark program and runs its traced churn_blind workload once,
# which calls the router and churn entry points it depends on and
# checks their output, then its serve workload once, which drives
# /v1/hit, /v1/plan and /v1/simulate over HTTP and checks every
# response; a fluid smoke sweeps the scale
# experiment (fluid backend up to ~12M concurrent viewers with DES
# comparison rungs); a bench-regression stage replays the quick
# experiment sweep against the recorded BENCH_sweeps.json baseline and
# warns on >15% slowdown. A final chaos
# smoke boots vodserverd on an ephemeral port, soaks it with vodchaos
# for a few seconds (mixed traffic, client cancellations, oversized and
# malformed bodies), then SIGTERMs it mid-run and requires zero
# invariant violations and a clean drain.
# Run from anywhere; operates on the repository root.
set -eu
cd "$(dirname "$0")/.."
# Formatting: every Go file outside the hidden build directories must be
# gofmt-clean; list the offenders and fail otherwise.
unformatted=$(find . -name '*.go' -not -path './.*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
    echo "ci: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go vet ./...
# The bench module is separate (bench/go.mod replaces vodalloc with this
# checkout); vetting it compiles vodperf against the current internal
# API and writes nothing.
(cd bench && go vet ./...)
go build ./...
go test ./...
# Shuffled race pass: -shuffle=on randomizes test order so ordering
# dependencies between tests surface alongside data races.
go test -race -shuffle=on ./...
# Breaker timing: a timed-out simulate must trip the circuit before the
# client's next request, on every run — a rerun catches a timing flake
# that a single pass lets through, and several GOMAXPROCS values vary
# the goroutine interleavings the race depends on.
go test -count=20 -cpu 1,2,4 -run='^TestSimulateTimeoutTripsBreaker$' ./internal/httpapi
go test -run='^$' -bench=. -benchtime=1x -benchmem ./...

# --- static analysis: a pinned staticcheck via the module proxy; a
# hermetic or offline environment (no proxy reachable, tool not cached)
# skips with a notice instead of failing the run ---
staticcheck_cmd="go run honnef.co/go/tools/cmd/staticcheck@2024.1.1"
if $staticcheck_cmd -version >/dev/null 2>&1; then
    $staticcheck_cmd ./...
    echo "ci: staticcheck passed"
else
    echo "ci: staticcheck unavailable (offline?); stage skipped"
fi

# --- fuzz: every Fuzz target for 5 s (go test -fuzz takes one target
# per run, so each file's targets are listed and run in turn) ---
for file in $(grep -rl --include='*_test.go' '^func Fuzz' cmd internal); do
    for target in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$file"); do
        go test -run='^$' -fuzz="^$target\$" -fuzztime=5s "./$(dirname "$file")"
    done
done
echo "ci: fuzz pass passed"

# --- checkpoint fuzz corpus + crash-resume smoke ---
go test -run='^FuzzCheckpointDecode$' ./internal/checkpoint
scripts/killresume.sh

# --- resume-refusal smoke: a node-row journal written for catalog a.json
# must refuse a rerun on b.json, which differs only in think time —
# never restore a.json's rows and print a.json's numbers ---
refuse=$(mktemp -d)
echo '{"movies":[{"name":"m1","length":90,"wait":1,"targetHit":0.5,"popularity":3,"dur":"exp:5","think":"exp:15"},{"name":"m2","length":90,"wait":1,"targetHit":0.5,"popularity":1,"dur":"exp:5","think":"exp:15"}]}' >"$refuse/a.json"
sed 's/exp:15/exp:60/g' "$refuse/a.json" >"$refuse/b.json"
go build -o "$refuse/vodcluster" ./cmd/vodcluster
"$refuse/vodcluster" simulate -catalog "$refuse/a.json" -nodes 2 -lambda 1 \
    -horizon 800 -resume "$refuse/ck" >/dev/null
if "$refuse/vodcluster" simulate -catalog "$refuse/b.json" -nodes 2 -lambda 1 \
    -horizon 800 -resume "$refuse/ck" >/dev/null 2>"$refuse/err"; then
    echo "ci: a rerun with a drifted catalog resumed the old journal" >&2
    exit 1
fi
if ! grep -q 'identity mismatch' "$refuse/err"; then
    echo "ci: the drifted rerun failed without an identity mismatch:" >&2
    cat "$refuse/err" >&2
    exit 1
fi
rm -rf "$refuse"
echo "ci: resume-refusal smoke passed"

# --- cluster smoke: plan Example 1 onto 3 nodes, then a short
# failover simulation with one node down mid-run ---
go run ./cmd/vodcluster plan -nodes 3 >/dev/null
go run ./cmd/vodcluster simulate -nodes 3 -replicas 2 -hot 1 -headroom 2 \
    -lambda 1.5 -horizon 400 -warmup 50 -fail node2@150 >/dev/null
echo "ci: cluster smoke passed"

# --- churn smoke: the live control plane under a flash crowd, with the
# rebalancing controller migrating replicas under a byte budget ---
go run ./cmd/vodcluster churn -nodes 4 -movies 6 -node-streams 300 \
    -node-buffer 200 -lambda 0.5 -flash "m01@300:4" -budget-mb 20000 \
    -horizon 900 -warmup 100 -seed 7 -interval 10 >/dev/null
echo "ci: churn smoke passed"

# --- gray smoke: a slow disk and a brownout under the hedged routing
# policy on a frozen placement; the health/quarantine/hedge pipeline
# end to end through the CLI ---
go run ./cmd/vodcluster churn -nodes 4 -movies 6 -node-streams 300 \
    -node-buffer 200 -lambda 0.5 -replicas 2 -controller=false \
    -gray "slow:node0@200-600:12,brownout:node2@300-700:0.4" \
    -policy hedge -horizon 900 -warmup 100 -seed 7 >/dev/null
echo "ci: gray smoke passed"

# --- embedding smoke: the public facade's handler (the hardened stack
# vodserverd serves) answers the example client's requests ---
go run ./examples/client >/dev/null
echo "ci: embedding smoke passed"

# --- vodperf smoke: the traced churn_blind run calls NewRouter,
# RouteLoad, RouteGray, Release, ReleaseDisk, SetGrayPolicy and both
# churn scenarios directly; the serve run posts /v1/hit, /v1/plan and
# /v1/simulate request bodies built from the httpapi types and checks
# each response. vodperf exits 1 when any output check fails. It writes
# only the git-ignored .bench_build/; bench/ stays untouched ---
perf=$(mktemp -d)
(cd bench && go build -o "$perf/vodperf" ./vodperf)
"$perf/vodperf" -workload churn_blind -seconds 1 -trace 1 -json "$perf/r.json" >/dev/null
"$perf/vodperf" -workload serve -seconds 1 -json "$perf/s.json" >/dev/null
rm -rf "$perf"
echo "ci: vodperf smoke passed"

# --- fluid smoke: the scale sweep runs the fluid backend from the
# paper's λ=0.5/min up to ten-million-viewer rungs, with DES comparison
# columns on the affordable rungs — the fluid/hybrid accuracy and
# throughput claims end to end through the CLI ---
go run ./cmd/vodbench -exp scale -quick >/dev/null
echo "ci: fluid smoke passed"

# --- bench regression: the quick experiment sweep against the latest
# recorded entry in BENCH_sweeps.json; a >15% slowdown warns on the CI
# log (machines differ), a missing or malformed artifact fails ---
bench_dir=$(mktemp -d)
go run ./cmd/vodbench -exp all -quick -json "$bench_dir/bench.json" \
    -baseline BENCH_sweeps.json >/dev/null
rm -rf "$bench_dir"
echo "ci: bench regression stage passed"

# --- chaos smoke ---
tmp=$(mktemp -d)
srv_pid=""
cleanup() {
    if [ -n "$srv_pid" ] && kill -0 "$srv_pid" 2>/dev/null; then
        kill "$srv_pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT
go build -o "$tmp/vodserverd" ./cmd/vodserverd
go build -o "$tmp/vodchaos" ./cmd/vodchaos
"$tmp/vodserverd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
    -drain 5s -timeout 2s >"$tmp/server.log" 2>&1 &
srv_pid=$!
i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "ci: vodserverd never bound its listener" >&2
        cat "$tmp/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
"$tmp/vodchaos" -addr "$(cat "$tmp/addr")" -dur 5s -clients 6 \
    -sigterm-pid "$srv_pid"
wait "$srv_pid"
srv_pid=""
echo "ci: chaos smoke passed"
