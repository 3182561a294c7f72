#!/usr/bin/env sh
# sample_smoke.sh — end-to-end proof of the interval-sampling executor:
# run one steady-state configuration (retention clock at real time) in
# full and again sampled (8 windows x 100 us, stride-16 fast-forward),
# then require (a) the sampled run's 95% confidence interval to contain
# the full run's IPC and (b) a wall-clock speedup over the full run.
# This is the executable form of DESIGN.md §15's contract; the
# BenchmarkFullRun / BenchmarkSampledRun pair measures the headline
# >=10x number at a longer duration.
#
# Usage: scripts/sample_smoke.sh [duration] [min-speedup]
# Env:   GO overrides the go binary.
set -eu
cd "$(dirname "$0")/.."

DURATION=${1:-20ms}
MIN_SPEEDUP=${2:-3}
GO=${GO:-go}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

"$GO" build -o "$TMP/rrmsim" ./cmd/rrmsim

SIMFLAGS="-workload GemsFDTD -scheme rrm -duration $DURATION -warmup 1ms -timescale 1 -seed 1 -json"

echo "sample_smoke: full run ($DURATION at timescale 1)" >&2
T0=$(date +%s%N)
"$TMP/rrmsim" $SIMFLAGS > "$TMP/full.json"
T1=$(date +%s%N)

echo "sample_smoke: sampled run (8 windows x 100 us, stride 16)" >&2
"$TMP/rrmsim" $SIMFLAGS -sample -sample-windows 8 -sample-window 100us \
    -sample-detail 100us -sample-stride 16 > "$TMP/sampled.json"
T2=$(date +%s%N)

FULL_IPC=$(jq -r '.IPC' "$TMP/full.json")
LO=$(jq -r '.sampling.ipc.lo' "$TMP/sampled.json")
HI=$(jq -r '.sampling.ipc.hi' "$TMP/sampled.json")
MEAN=$(jq -r '.sampling.ipc.mean' "$TMP/sampled.json")
if [ "$LO" = null ] || [ "$HI" = null ] || [ "$MEAN" = null ]; then
    echo "sample_smoke: FAIL — sampled run reported no finite IPC interval" >&2
    exit 1
fi

awk -v full="$FULL_IPC" -v lo="$LO" -v hi="$HI" -v mean="$MEAN" \
    -v t0="$T0" -v t1="$T1" -v t2="$T2" -v min="$MIN_SPEEDUP" '
BEGIN {
    fullwall = (t1 - t0) / 1e9
    sampwall = (t2 - t1) / 1e9
    speedup = sampwall > 0 ? fullwall / sampwall : 0
    printf "sample_smoke: full IPC %.4f in %.2f s; sampled %.4f [%.4f, %.4f] in %.2f s (%.1fx)\n", \
        full, fullwall, mean, lo, hi, sampwall, speedup > "/dev/stderr"
    bad = 0
    if (full < lo || full > hi) {
        printf "sample_smoke: FAIL — full-run IPC %.4f outside sampled 95%% CI [%.4f, %.4f]\n", \
            full, lo, hi > "/dev/stderr"
        bad = 1
    }
    if (speedup < min) {
        printf "sample_smoke: FAIL — speedup %.1fx below required %sx\n", \
            speedup, min > "/dev/stderr"
        bad = 1
    }
    if (!bad) print "sample_smoke: OK — interval contains the full run and sampling is faster" > "/dev/stderr"
    exit bad
}'
