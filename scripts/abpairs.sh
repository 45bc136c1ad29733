#!/usr/bin/env bash
# abpairs.sh — A/B the benchmark between a parent revision and the working
# tree, in alternating pairs.
#
#   scripts/abpairs.sh <parent-rev> <workload|all> <pairs> [seed]
#
# Checks <parent-rev> out into a temporary git worktree, then runs
#
#   bash bench/run.sh --workload <workload> --seed <seed> --seconds 8 --trace 0 --out <file>
#
# <pairs> times in each tree, alternating which one runs first in a pair so
# that drift on a shared machine falls on both sides alike. Prints, for each
# end-to-end metric of BENCHMARK.json, each side's median and q1–q3, the
# change of the medians and how many pairs the working tree won (by the
# metric's own "better" direction), then runs `bash bench/run.sh compare`
# on the two record files and prints the workload's rows. It exits non-zero
# if a run is not correct or has a failed operation, if an exact number
# differs between the sides, or if an end-to-end metric is worse than its
# bound. The workload `all` does this for every workload in BENCHMARK.json
# in turn, then prints one verdict line per workload, and exits non-zero if
# any workload is not ok.
# The seed defaults to the benchmark's own (2561). The records and each
# run's report are kept in a temporary directory whose path is printed.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ] || ! [[ $3 =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: scripts/abpairs.sh <parent-rev> <workload|all> <pairs> [seed]" >&2
    exit 2
fi
rev=$1 pairs=$3 seed=${4:-2561}

cd "$(dirname "$0")/.."
change=$PWD
if [ "$2" = all ]; then
    workloads="$(sed -n '/"workloads"/,/^  \]/s/^ *"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)"
    if [ -z "$workloads" ]; then
        echo "abpairs: no workload names found in BENCHMARK.json" >&2
        exit 2
    fi
else
    workloads=$2
fi
# The end-to-end metrics, one "<name> <lower|higher>" a line.
metrics="$(sed -n '/"end_to_end"/,/^  \]/p' BENCHMARK.json |
    awk -F'"' '$2 == "name" { name = $4 } $2 == "better" { print name, $4 }')"
if [ -z "$metrics" ]; then
    echo "abpairs: no end-to-end metrics found in BENCHMARK.json" >&2
    exit 2
fi
out="$(mktemp -d "${TMPDIR:-/tmp}/abpairs.XXXXXX")"
parent="$out/parent"
git worktree add --detach --quiet "$parent" "$rev"
trap 'git -C "$change" worktree remove --force "$parent"' EXIT

# run <side> <tree>: one timed run of $workload in that tree, its record
# appended to <side>.ndjson and its report to <side>.log under $dir.
run() {
    (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" \
        --seconds 8 --trace 0 --out "$dir/$1.ndjson" >>"$dir/$1.log")
}

# values <side> <metric>: the metric of each of the side's runs, in order.
values() {
    grep -o "\"$2\":{\"value\":[^,}]*" "$dir/$1.ndjson" | cut -d: -f3
}

# stats: median (q1–q3) of the numbers on stdin, interpolated.
stats() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,  h, lo) { h = (NR - 1) * p; lo = int(h); return v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1]) }
        END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

# ab: A/B $workload in $pairs alternating pairs, records under $dir; its
# exit status is non-zero if the workload is not ok.
ab() {
    mkdir -p "$dir"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run parent "$parent" && run change "$change"
        else
            run change "$change" && run parent "$parent"
        fi || { echo "abpairs: a $workload run failed: see $dir/*.log" >&2; return 1; }
        echo "abpairs: $workload pair $i of $pairs done" >&2
    done

    echo "workload $workload, seed $seed, $pairs pairs: parent $(git rev-parse --short "$rev"), change = working tree"
    printf '%-20s %-32s %-32s %8s %s\n' metric "parent median (q1–q3)" "change median (q1–q3)" change "pairs won"
    while read -r metric better; do
        read -r pm pq1 pq3 < <(values parent "$metric" | stats)
        read -r cm cq1 cq3 < <(values change "$metric" | stats)
        won="$(paste <(values change "$metric") <(values parent "$metric") |
            awk -v b="$better" '(b == "higher" && $1 > $2) || (b == "lower" && $1 < $2) { n++ } END { print n + 0 }')"
        printf '%-20s %-32s %-32s %7s%% %s/%s\n' "$metric" "$pm ($pq1–$pq3)" "$cm ($cq1–$cq3)" \
            "$(awk -v a="$pm" -v b="$cm" 'BEGIN { if (a == 0) print "n/a"; else printf "%+.1f", 100 * (b - a) / a }')" "$won" "$pairs"
    done <<<"$metrics"
    echo "records and reports: $dir"

    # Every run must be correct with no failed operation.
    status=0
    for side in parent change; do
        bad="$(grep -vc '"correct":true,"attempted":[0-9]*,"failed":0,' "$dir/$side.ndjson" || true)"
        if [ "$bad" != 0 ]; then
            echo "abpairs: $bad $side run(s) not correct or with failed operations: see $dir/$side.log" >&2
            status=1
        fi
    done

    # compare covers every workload and calls the ones not run missing: keep
    # this workload's rows, each of which must be ok (an exact number that
    # differs between the sides is a "changed" row or an "exact block changed"
    # line).
    rows="$(bash bench/run.sh compare "$dir/parent.ndjson" "$dir/change.ndjson" |
        awk -v w="$workload" 'NR == 1 || $1 == w')" || true
    printf '%s\n' "$rows"
    if printf '%s\n' "$rows" | awk -v w="$workload" '$1 == w && $NF != "ok" { bad = 1 } END { exit !bad }'; then
        status=1
    fi
    return "$status"
}

# Each workload keeps its records in its own directory; `all` ends with a
# verdict per workload.
verdicts="" failed=0
for workload in $workloads; do
    dir="$out/$workload"
    if ab; then
        verdicts+="$workload ok"$'\n'
    else
        verdicts+="$workload NOT OK"$'\n'
        failed=1
    fi
done
if [ "$2" = all ]; then
    printf '\nabpairs: verdicts against %s\n%s' "$(git rev-parse --short "$rev")" "$verdicts"
fi
exit "$failed"
