#!/bin/sh
# Kill-resume verification harness: SIGKILL a checkpointed run at a
# random point mid-flight, resume it from the surviving checkpoint
# directory, and require the final output to be byte-identical to an
# uninterrupted run. Seven stages:
#
#   single   one long vodsim simulation with periodic state checkpoints
#   sweep    a vodsim replication sweep journaling completed items
#   fluid    a vodsim run on the fluid backend at λ=20000/min, so the
#            checkpoints carry fluid per-movie state (cohort ledgers,
#            particle census, residency EWMA) alongside the kernel
#   cluster  a vodcluster node-count sweep journaling per-node sim rows
#   churn    a vodcluster churn run (live rebalancing controller) with
#            replay checkpoints — the kill may land mid-rebalance
#   gray     a hedged vodcluster churn run killed mid-quarantine
#   evacuate a churn run killed while the controller drains a
#            quarantined node
#
# A kill that lands before any progress was journaled (or after the run
# finished) proves nothing, so each stage retries with a fresh random
# delay until the resumed run actually reports recovered state.
# Run from anywhere; operates on the repository root.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    if [ -n "$pid" ]; then
        kill -9 "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/vodsim" ./cmd/vodsim
go build -o "$tmp/vodcluster" ./cmd/vodcluster

# rand_delay MIN MAX SALT: a uniform delay in seconds, seeded by pid+salt
# so retries within the same second still draw fresh values.
rand_delay() {
    awk -v min="$1" -v max="$2" -v salt="$3" \
        'BEGIN { srand(); srand(srand() + PROCINFO["pid"] + salt); printf "%.2f", min + rand() * (max - min) }' 2>/dev/null ||
        echo "0.8"
}

# run_stage NAME MIN MAX BINARY ARGS…: golden run, then kill at a random
# point in [MIN, MAX] seconds and resume, retrying until the resume
# demonstrably recovered journaled progress. Pick the window to overlap
# the checkpointed phase: vodcluster spends ~2s sizing the catalog
# before its first journal write, so its window starts later.
run_stage() {
    name=$1
    kmin=$2
    kmax=$3
    bin=$4
    shift 4
    golden="$tmp/$name.golden"
    "$bin" "$@" >"$golden" 2>/dev/null

    attempt=0
    while :; do
        attempt=$((attempt + 1))
        if [ "$attempt" -gt 5 ]; then
            echo "killresume: $name: no attempt caught the run mid-flight with journaled progress" >&2
            exit 1
        fi
        dir="$tmp/$name.ckpt.$attempt"
        delay=$(rand_delay "$kmin" "$kmax" "$attempt")
        "$bin" "$@" -resume "$dir" >/dev/null 2>&1 &
        pid=$!
        sleep "$delay"
        if ! kill -0 "$pid" 2>/dev/null; then
            # Finished before the kill landed; try again with a new delay.
            wait "$pid" 2>/dev/null || true
            pid=""
            continue
        fi
        kill -9 "$pid"
        wait "$pid" 2>/dev/null || true
        pid=""

        out="$tmp/$name.out"
        err="$tmp/$name.err"
        "$bin" "$@" -resume "$dir" >"$out" 2>"$err"
        if ! grep -q 'resum' "$err"; then
            # Killed before anything was journaled; the rerun was a clean
            # recompute and proves nothing about recovery. Retry.
            continue
        fi
        if ! cmp -s "$golden" "$out"; then
            echo "killresume: $name: resumed output differs from the uninterrupted run" >&2
            diff "$golden" "$out" >&2 || true
            exit 1
        fi
        echo "killresume: $name ok after SIGKILL at ${delay}s ($(head -1 "$err"))"
        return 0
    done
}

# The single run finishes in ~0.6s with its first state checkpoint on
# disk by ~0.1s; the replication sweep takes 1.1–1.4s journaling items
# throughout. Windows cover the checkpointed middle of each.
run_stage single 0.15 0.5 "$tmp/vodsim" -l 120 -b 60 -n 30 -lambda 0.5 \
    -horizon 150000 -warmup 500 -seed 7 -compare=false -checkpoint-every 10000
run_stage sweep 0.25 0.9 "$tmp/vodsim" -l 120 -b 60 -n 30 -lambda 0.5 \
    -horizon 40000 -warmup 500 -seed 7 -compare=false -replications 16
# The fluid run (~2s, ~3.2M particle/restart events) carries ~2.4M
# concurrent viewers on the fluid backend; checkpoints land every ~0.1s
# from the start, so any kill inside the window finds one.
# Resume must rebuild cohort ledgers, the particle census and the
# residency EWMA bit-identically through event replay.
run_stage fluid 0.3 1.1 "$tmp/vodsim" -l 120 -b 30 -n 30 -lambda 20000 \
    -engine fluid -horizon 200000 -warmup 500 -seed 7 -compare=false \
    -checkpoint-every 150000
# -parallel 1 serializes the per-node sims so journaled rows spread
# over ~2.3s of wall clock instead of landing nearly at once; the kill
# window sits past the ~0.2s sizing phase that precedes the first row
# and ends before the 2.4–2.8s finish (timings on a 2-core host —
# recalibrate the horizon if the sweep gets materially faster or
# slower).
run_stage cluster 1.0 1.9 "$tmp/vodcluster" sweep -min-nodes 2 -max-nodes 5 \
    -lambda 1.5 -horizon 36000 -warmup 600 -seed 7 -parallel 1
# The churn run (240000 sim-minutes, a 4× flash at t=80000) finishes in
# ~2.4s uninterrupted on a 2-core host, longer with -resume, writing
# replay checkpoints every 2000 events from early in the run; a kill in
# [0.4, 1.4]s lands between t≈15000 and t≈85000, mid-run.
run_stage churn 0.4 1.4 "$tmp/vodcluster" churn -nodes 4 -movies 6 \
    -node-streams 400 -node-buffer 200 -lambda 6 -flash "m01@80000:4" \
    -budget-mb 40000 -horizon 240000 -warmup 500 -seed 7 -interval 10 \
    -checkpoint-every 2000
# The gray run (~0.15s sizing, then 260000 sim-minutes: ~3.5s
# uninterrupted on a 2-core host, longer with -resume) keeps node0 slow
# over 25–75% and node2 browned out over 35–80% of the horizon; the
# -resume run reaches t≈120000–130000 at 2.0s and t≈135000–160000 at
# 2.9s (under load a host can run at half that pace), so a kill in
# [2.0, 2.9]s lands
# while the hedged router holds live quarantine state — resume must
# reconstruct health scores, sorted sample windows, hedge counters and
# quarantine streaks bit-identically. If the run's speed moves, rescale
# the horizon and the fault times together so the kill window stays
# inside the faults.
run_stage gray 2.0 2.9 "$tmp/vodcluster" churn -nodes 4 -movies 6 \
    -node-streams 400 -node-buffer 200 -lambda 6 -replicas 2 \
    -controller=false -gray "slow:node0@65000-195000:12,brownout:node2@91000-208000:0.4" \
    -policy hedge -horizon 260000 -warmup 500 -seed 7 -checkpoint-every 2000
# The evacuate run (~4s uninterrupted; same sizing profile as gray)
# arms the controller with a 10-minute evacuation dwell: node0
# quarantines just past t=65000 and its replicas drain shortly after;
# the -resume run is at t≈90000 by 2.0s and t≈125000–155000 by 2.9s, so
# a kill in [2.0, 2.9]s lands while node0 sits quarantined and evacuated
# — resume must reconstruct the evacuation ledger, drain migrations and
# health state bit-identically.
run_stage evacuate 2.0 2.9 "$tmp/vodcluster" churn -nodes 4 -movies 6 \
    -node-streams 400 -node-buffer 200 -lambda 6 -replicas 2 \
    -gray "slow:node0@65000-195000:12" -policy hedge -evacuate-dwell 10 \
    -interval 10 -budget-mb 200000 -horizon 260000 -warmup 500 -seed 7 \
    -checkpoint-every 2000

echo "killresume: all stages passed"
