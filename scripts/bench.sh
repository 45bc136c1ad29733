#!/usr/bin/env bash
# bench.sh — per-PR benchmark harness.
#
# Times the full experiment suite serially (-jobs 1) and on all CPUs
# (-jobs $(nproc)), verifies the two stdout streams are byte-identical,
# runs the tier-1 engine/index micro-benchmarks with -benchmem, runs the
# codec matrix (table1 under raw and gvarint on every workload scale in the
# matrix) verifying the compressed index is strictly smaller on device and
# query results are byte-identical across codecs (timing/occupancy rows are
# byte-denominated and may differ), extracts the serving shard x load
# throughput/tail-latency matrix and the policy-zoo sweep (every registered
# cache policy x budget x workload) from the suite output, and writes the
# whole record to BENCH_pr${PR}.json, extending the perf trajectory
# (BENCH_pr2.json was the first point). Fails hard if
# BenchmarkEngineExecute exceeds 4 allocs/op (Result, its Docs, the TermStats
# slice and the query's own terms; the engine's scratch is reused).
#
# Baselines: the microbench "baseline" objects and the suite pre-change
# number are filled from the newest committed BENCH_pr*.json below the
# current PR (the previous trajectory point); BASELINE_* environment
# variables override. The parallel speedup is only reported on hosts with
# more than one CPU -- on a single CPU the ratio is pure noise.
#
# Environment:
#   PR       PR number stamped into the record (default: 9)
#   SCALE    suite scale to time (default: small; full takes much longer)
#   JOBS     parallel job count (default: nproc)
#   OUT      output JSON path (default: BENCH_pr${PR}.json in the repo root)
#   BASELINE_ENGINE_NS / _ALLOCS, BASELINE_E2E_NS / _ALLOCS,
#   BASELINE_BUILD_NS / _ALLOCS, BASELINE_SUITE_S
#            optional pre-change numbers to embed for before/after deltas
set -euo pipefail

cd "$(dirname "$0")/.."

PR="${PR:-9}"
SCALE="${SCALE:-small}"
JOBS="${JOBS:-$(nproc)}"
OUT="${OUT:-BENCH_pr${PR}.json}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Newest committed trajectory point below the current PR supplies the
# baseline numbers, unless BASELINE_* already set them.
PREV_BENCH=""
for f in $(ls BENCH_pr*.json 2>/dev/null | sort -t r -k 2 -n); do
    n="${f#BENCH_pr}"; n="${n%.json}"
    [ "$n" -lt "$PR" ] 2>/dev/null && PREV_BENCH="$f"
done
if [ -n "$PREV_BENCH" ]; then
    echo "== baseline from $PREV_BENCH" >&2
    prev_field() { jq -r "$1 // empty" "$PREV_BENCH" 2>/dev/null; }
    : "${BASELINE_ENGINE_NS:=$(prev_field .microbench.engine_execute.ns_op)}"
    : "${BASELINE_ENGINE_ALLOCS:=$(prev_field .microbench.engine_execute.allocs_op)}"
    : "${BASELINE_E2E_NS:=$(prev_field .microbench.end_to_end_search.ns_op)}"
    : "${BASELINE_E2E_ALLOCS:=$(prev_field .microbench.end_to_end_search.allocs_op)}"
    : "${BASELINE_BUILD_NS:=$(prev_field .microbench.index_build.ns_op)}"
    : "${BASELINE_BUILD_ALLOCS:=$(prev_field .microbench.index_build.allocs_op)}"
    : "${BASELINE_SUITE_S:=$(prev_field .suite.serial_jobs1_seconds)}"
else
    echo "== no committed BENCH_pr*.json below PR $PR; baselines only from env" >&2
fi

echo "== building hybridbench" >&2
go build -o "$WORK/hybridbench" ./cmd/hybridbench

run_suite() { # run_suite <jobs> <outfile> -> wall seconds
    local t0 t1
    t0=$(date +%s.%N)
    "$WORK/hybridbench" -exp all -scale "$SCALE" -jobs "$1" >"$2" 2>"$WORK/err_$1.txt"
    t1=$(date +%s.%N)
    awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.2f", b-a}'
}

echo "== timing suite: -scale $SCALE -jobs 1" >&2
SERIAL_S=$(run_suite 1 "$WORK/out_serial.txt")
echo "   ${SERIAL_S}s" >&2

echo "== timing suite: -scale $SCALE -jobs $JOBS" >&2
PARALLEL_S=$(run_suite "$JOBS" "$WORK/out_parallel.txt")
echo "   ${PARALLEL_S}s" >&2

if ! cmp -s "$WORK/out_serial.txt" "$WORK/out_parallel.txt"; then
    echo "FATAL: -jobs 1 and -jobs $JOBS stdout differ" >&2
    diff "$WORK/out_serial.txt" "$WORK/out_parallel.txt" | head -40 >&2
    exit 1
fi
echo "== outputs byte-identical" >&2

echo "== running tier-1 micro-benchmarks (-benchmem)" >&2
go test -run '^$' -bench 'BenchmarkEngineExecute$|BenchmarkEndToEndSearch$|BenchmarkIndexBuild$' \
    -benchmem -benchtime=2s -count=1 . | tee "$WORK/bench.txt" >&2

# bench_field <benchmark> <unit> -> value for that unit on the bench line
bench_field() {
    awk -v name="$1" -v unit="$2" '
        $1 ~ "^"name"(-[0-9]+)?$" {
            for (i = 2; i < NF; i++) if ($(i+1) == unit) { print $i; exit }
        }' "$WORK/bench.txt"
}

ENGINE_NS=$(bench_field BenchmarkEngineExecute ns/op)
ENGINE_ALLOCS=$(bench_field BenchmarkEngineExecute allocs/op)
ENGINE_BYTES=$(bench_field BenchmarkEngineExecute B/op)
E2E_NS=$(bench_field BenchmarkEndToEndSearch ns/op)
E2E_ALLOCS=$(bench_field BenchmarkEndToEndSearch allocs/op)
E2E_BYTES=$(bench_field BenchmarkEndToEndSearch B/op)
BUILD_NS=$(bench_field BenchmarkIndexBuild ns/op)
BUILD_ALLOCS=$(bench_field BenchmarkIndexBuild allocs/op)
BUILD_BYTES=$(bench_field BenchmarkIndexBuild B/op)

if [ "${ENGINE_ALLOCS%.*}" -gt 4 ]; then
    echo "FATAL: BenchmarkEngineExecute allocs/op = $ENGINE_ALLOCS exceeds budget of 4" >&2
    exit 1
fi
echo "== engine allocs/op = $ENGINE_ALLOCS (budget 4)" >&2

echo "== codec matrix: table1 under raw and gvarint" >&2
index_bytes() { # index_bytes <outfile>
    awk '/^index bytes on device:/ { print $5; exit }' "$1"
}
CODEC_MATRIX="["
first=1
for codec in raw gvarint; do
    for mscale in small full; do
        [ "$mscale" = full ] && [ "$SCALE" != full ] && continue
        "$WORK/hybridbench" -exp table1 -scale "$mscale" -jobs "$JOBS" -codec "$codec" \
            >"$WORK/table1_${codec}_${mscale}.txt" 2>/dev/null
        bytes=$(index_bytes "$WORK/table1_${codec}_${mscale}.txt")
        echo "   $codec/$mscale: index bytes on device = $bytes" >&2
        [ $first -eq 0 ] && CODEC_MATRIX="$CODEC_MATRIX,"
        CODEC_MATRIX="$CODEC_MATRIX
    {\"codec\": \"$codec\", \"scale\": \"$mscale\", \"index_bytes\": $bytes}"
        first=0
    done
done
CODEC_MATRIX="$CODEC_MATRIX
  ]"
for mscale in small full; do
    [ "$mscale" = full ] && [ "$SCALE" != full ] && continue
    RAW_BYTES=$(index_bytes "$WORK/table1_raw_${mscale}.txt")
    GV_BYTES=$(index_bytes "$WORK/table1_gvarint_${mscale}.txt")
    if [ "$GV_BYTES" -ge "$RAW_BYTES" ]; then
        echo "FATAL: gvarint index ($GV_BYTES B) not smaller than raw ($RAW_BYTES B) at scale $mscale" >&2
        exit 1
    fi
    # The situation mix (P_i, T_i) is byte-denominated — compressed lists
    # shift cache occupancy, so those rows legitimately differ between
    # codecs. The query-count line must still agree.
    if ! diff <(grep '^queries classified:' "$WORK/table1_raw_${mscale}.txt") \
              <(grep '^queries classified:' "$WORK/table1_gvarint_${mscale}.txt") >/dev/null; then
        echo "FATAL: table1 query counts diverge between codecs at scale $mscale" >&2
        exit 1
    fi
done
# Query-result identity across codecs (docs, scores, posting counts — the
# actual contract; timing/occupancy may differ) is checked exhaustively by
# the dedicated tests, across all cache modes.
if ! go test -count=1 -run 'TestExecuteIdenticalAcrossCodecs' ./internal/engine >/dev/null 2>&1; then
    echo "FATAL: TestExecuteIdenticalAcrossCodecs failed" >&2
    exit 1
fi
if ! go test -count=1 -run 'TestResultsIdenticalAcrossCodecs' . >/dev/null 2>&1; then
    echo "FATAL: TestResultsIdenticalAcrossCodecs failed" >&2
    exit 1
fi
echo "== gvarint strictly smaller on device, results codec-invariant" >&2

# On a single CPU the serial/parallel ratio measures scheduler noise, not
# parallelism; report it only when the host can run jobs concurrently.
if [ "$(nproc)" -gt 1 ]; then
    SPEEDUP=$(awk -v s="$SERIAL_S" -v p="$PARALLEL_S" 'BEGIN{printf "%.2f", s/p}')
else
    SPEEDUP=null
fi

# Serving matrix: the suite output already contains the serving sweep's
# per-cell lines; fold them into JSON.
SERVING_MU=$(awk '/^single-shard closed-loop capacity mu=/ { sub(/^.*mu=/,""); print $1; exit }' "$WORK/out_serial.txt")
SERVING_MATRIX=$(awk '
    /^shards=[0-9]+ load=/ {
        for (i = 1; i <= NF; i++) if (split($i, a, "=") == 2) kv[a[1]] = a[2]
        sub(/x$/, "", kv["load"])
        printf "%s\n    {\"shards\": %s, \"load\": %s, \"offered_qps\": %s, \"tput_qps\": %s, \"coalesced\": %s, \"p50_us\": %s, \"p99_us\": %s, \"p999_us\": %s}", \
            (found++ ? "," : ""), kv["shards"], kv["load"], kv["offered_qps"], \
            kv["tput_qps"], kv["coalesced"], kv["p50_us"], kv["p99_us"], kv["p999_us"]
        delete kv
    }
    END { print "" }' "$WORK/out_serial.txt")
if [ -z "$SERVING_MU" ] || [ -z "$(printf %s "$SERVING_MATRIX" | tr -d "[:space:]")" ]; then
    echo "FATAL: serving matrix missing from suite output" >&2
    exit 1
fi

# Policy zoo: the suite output contains the policy x budget x workload
# table; fold its rows into JSON so the trajectory records every policy's
# hit ratio, latency and flash wear.
POLICY_MATRIX=$(awk '
    /^# Policy zoo/ { inzoo = 1; next }
    inzoo && /^\(/ { inzoo = 0 }
    inzoo && NF == 7 && $2 ~ /^[0-9.]+x$/ {
        budget = $2; sub(/x$/, "", budget)
        printf "%s\n    {\"workload\": \"%s\", \"budget\": %s, \"policy\": \"%s\", \"ric\": %s, \"resp_ms\": %s, \"ssd_pages\": %s, \"erases\": %s}", \
            (found++ ? "," : ""), $1, budget, $3, $4, $5, $6, $7
    }
    END { print "" }' "$WORK/out_serial.txt")
if [ -z "$(printf %s "$POLICY_MATRIX" | tr -d "[:space:]")" ]; then
    echo "FATAL: policy-zoo matrix missing from suite output" >&2
    exit 1
fi

baseline_json() { # baseline_json <ns_var> <allocs_var>
    local ns="${!1:-}" allocs="${!2:-}"
    if [ -n "$ns" ] && [ -n "$allocs" ]; then
        printf '{"ns_op": %s, "allocs_op": %s}' "$ns" "$allocs"
    else
        printf 'null'
    fi
}

cat >"$OUT" <<EOF
{
  "pr": $PR,
  "host": {
    "cpus": $(nproc),
    "go": "$(go env GOVERSION)"
  },
  "suite": {
    "scale": "$SCALE",
    "serial_jobs1_seconds": $SERIAL_S,
    "parallel_jobs${JOBS}_seconds": $PARALLEL_S,
    "parallel_jobs": $JOBS,
    "speedup": $SPEEDUP,
    "outputs_byte_identical": true,
    "pre_change_serial_seconds": ${BASELINE_SUITE_S:-null}
  },
  "microbench": {
    "engine_execute": {
      "ns_op": $ENGINE_NS, "bytes_op": $ENGINE_BYTES, "allocs_op": $ENGINE_ALLOCS,
      "baseline": $(baseline_json BASELINE_ENGINE_NS BASELINE_ENGINE_ALLOCS)
    },
    "end_to_end_search": {
      "ns_op": $E2E_NS, "bytes_op": $E2E_BYTES, "allocs_op": $E2E_ALLOCS,
      "baseline": $(baseline_json BASELINE_E2E_NS BASELINE_E2E_ALLOCS)
    },
    "index_build": {
      "ns_op": $BUILD_NS, "bytes_op": $BUILD_BYTES, "allocs_op": $BUILD_ALLOCS,
      "baseline": $(baseline_json BASELINE_BUILD_NS BASELINE_BUILD_ALLOCS)
    }
  },
  "codec_matrix": $CODEC_MATRIX,
  "policy_zoo": {
    "scale": "$SCALE",
    "matrix": [$POLICY_MATRIX
    ]
  },
  "serving": {
    "scale": "$SCALE",
    "single_shard_capacity_qps": $SERVING_MU,
    "matrix": [$SERVING_MATRIX
    ]
  }
}
EOF

jq -e . "$OUT" >/dev/null || { echo "FATAL: $OUT is not valid JSON" >&2; exit 1; }

echo "== wrote $OUT" >&2
cat "$OUT"
