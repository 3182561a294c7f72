#!/usr/bin/env sh
# bench_json.sh — run the simulator hot-path benchmarks and emit a
# machine-readable JSON report (default BENCH_10.json) with ns/op, B/op
# and allocs/op per benchmark, the recorded pre-optimization baseline
# from scripts/bench_baseline_3.json (where one exists), and the
# relative improvement. The cold/warm sweep pair measures the warm-start
# engine: WarmStartSweep forks three of its four runs from a shared
# warmup snapshot instead of re-simulating the prefix. The trace trio
# (Generator / GeneratorPhases+Burst / Replay) compares stationary
# generation, non-stationary modulation, and trace-file decode. The
# full/sampled pair at the end runs one steady-state configuration
# cycle-accurately and through the interval-sampling executor; the
# ns/op ratio is the sampling speedup (>=10x at this configuration).
# The hybrid pair measures the DRAM staging tier: HybridDRAMHit is the
# resident-page fast path (routing + DRAM array, zero PCM traffic) and
# HybridMigration a full promote/copy/demote churn cycle.
#
# Usage: scripts/bench_json.sh [output.json]
# Env:   BENCHTIME overrides go test -benchtime (default 1s).
set -eu
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_10.json}
BASELINE=scripts/bench_baseline_3.json
BENCH='^(BenchmarkTraceGenerator|BenchmarkTraceGeneratorPhases|BenchmarkTraceGeneratorBurst|BenchmarkTraceReplay|BenchmarkCacheHierarchyAccess|BenchmarkMemoryController|BenchmarkFullSystemSimulation|BenchmarkReliabilitySimulation|BenchmarkColdStartSweep|BenchmarkWarmStartSweep|BenchmarkFullRun|BenchmarkSampledRun|BenchmarkHybridDRAMHit|BenchmarkHybridMigration)$'

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

"${GO:-go}" test -run '^$' -bench "$BENCH" -benchmem -benchtime "${BENCHTIME:-1s}" -count 1 . | tee "$RAW" >&2

awk -v goversion="$("${GO:-go}" env GOVERSION)" '
# Baseline file: one benchmark per line, fixed key order (see
# scripts/bench_baseline_3.json).
FNR == NR {
    if (match($0, /"Benchmark[^"]*"/)) {
        name = substr($0, RSTART + 1, RLENGTH - 2)
        line = $0
        base_ns[name] = field(line, "ns_per_op")
        base_b[name] = field(line, "b_per_op")
        base_allocs[name] = field(line, "allocs_per_op")
    }
    next
}
# go test -bench output: Name-P  iters  V ns/op  [V unit ...]  V B/op  V allocs/op
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    order[++n] = name
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns[name] = $(i - 1)
        else if ($i == "B/op") bytes[name] = $(i - 1)
        else if ($i == "allocs/op") allocs[name] = $(i - 1)
    }
}
END {
    printf "{\n"
    printf "  \"schema\": \"rrmpcm-bench/1\",\n"
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"benchmarks\": {\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\n", name
        printf "      \"ns_per_op\": %s,\n", ns[name]
        printf "      \"b_per_op\": %s,\n", bytes[name]
        printf "      \"allocs_per_op\": %s", allocs[name]
        if (name in base_ns) {
            printf ",\n      \"baseline\": {\"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s},\n", \
                base_ns[name], base_b[name], base_allocs[name]
            printf "      \"ns_improvement_pct\": %.1f,\n", pct(base_ns[name], ns[name])
            printf "      \"allocs_improvement_pct\": %.1f\n", pct(base_allocs[name], allocs[name])
        } else {
            printf "\n"
        }
        printf "    }%s\n", (i < n ? "," : "")
    }
    printf "  }\n}\n"
}
function field(line, key,    rest) {
    # Extract the number following "key": on the line.
    if (!match(line, "\"" key "\":[ ]*[-0-9.e+]+")) return 0
    rest = substr(line, RSTART, RLENGTH)
    sub(/.*:[ ]*/, "", rest)
    return rest + 0
}
function pct(base, now) {
    if (base + 0 == 0) return 0
    return 100 * (base - now) / base
}
' "$BASELINE" "$RAW" > "$OUT"

echo "wrote $OUT" >&2
