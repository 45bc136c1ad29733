#!/usr/bin/env bash
# samebytes.sh — checks that the working tree prints the same bytes as a
# revision: every simulated number, trace record and report.
#
#   scripts/samebytes.sh <rev> [hybridbench flags]
#
# Builds <rev> in a temporary git worktree and the working tree, then runs
# each of these in both and compares the outputs with cmp:
#
#   hybridbench -exp all <hybridbench flags>          (default -scale small -jobs 2)
#   hybridbench -exp fig17,dynamic -scale small -trace <file>   (stdout and trace)
#   searchsim -docs 300000 -queries 3000 -json - -policy P      (P = lru, cblru, cbslru, tinylfu)
#   searchsim ... -policy P -result-ttl 200ms -list-ttl 2s      (P = lru, cbslru)
#   searchsim -docs 300000 -queries 3000 -metrics-every 1000    (live lines and text report)
#   searchsim -serve -shards 2 -docs 60000 -queries 400 -serve-warm 200 -trace <file>
#                                                               (stdout and trace)
#
# hybridbench's wall-clock "completed in" lines are dropped before the
# compare. A pair that differs is printed DIFFERENT with the first 20 lines
# of its diff. Exits non-zero if any pair differs; the outputs are kept in a
# temporary directory whose path is printed.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: scripts/samebytes.sh <rev> [hybridbench flags]" >&2
    exit 2
fi
rev=$1
shift
benchflags=("$@")
if [ ${#benchflags[@]} -eq 0 ]; then
    benchflags=(-scale small -jobs 2)
fi

cd "$(dirname "$0")/.."
change=$PWD
out="$(mktemp -d "${TMPDIR:-/tmp}/samebytes.XXXXXX")"
parent="$out/parent-tree"
git worktree add --detach --quiet "$parent" "$rev"
trap 'git -C "$change" worktree remove --force "$parent"' EXIT

for side in parent change; do
    tree=$parent
    [ "$side" = change ] && tree=$change
    mkdir -p "$out/$side/bin"
    (cd "$tree" && go build -o "$out/$side/bin/" ./cmd/hybridbench ./cmd/searchsim)
done

# run <side> <name> <command...>: the command's stdout, minus wall-clock
# lines, into <side>/<name>; any file it writes goes to <side> too.
run() {
    local side=$1 name=$2
    shift 2
    (cd "$out/$side" && "$@" | grep -v 'completed in' >"$name")
}

for side in parent change; do
    bin="$out/$side/bin"
    echo "samebytes: running the $side side" >&2
    run "$side" all.txt "$bin/hybridbench" -exp all "${benchflags[@]}" 2>/dev/null
    run "$side" traced.txt "$bin/hybridbench" -exp fig17,dynamic -scale small -trace trace.ndjson 2>/dev/null
    for policy in lru cblru cbslru tinylfu; do
        run "$side" "searchsim-$policy.json" "$bin/searchsim" -docs 300000 -queries 3000 -json - -policy "$policy"
    done
    for policy in lru cbslru; do
        run "$side" "searchsim-ttl-$policy.json" "$bin/searchsim" -docs 300000 -queries 3000 -json - \
            -policy "$policy" -result-ttl 200ms -list-ttl 2s
    done
    run "$side" searchsim-live.txt "$bin/searchsim" -docs 300000 -queries 3000 -metrics-every 1000
    run "$side" serve.txt "$bin/searchsim" -serve -shards 2 -docs 60000 -queries 400 -serve-warm 200 \
        -trace serve.ndjson
done

fail=0
for f in all.txt traced.txt trace.ndjson searchsim-{lru,cblru,cbslru,tinylfu,ttl-lru,ttl-cbslru}.json \
    searchsim-live.txt serve.txt serve.ndjson; do
    if cmp -s "$out/parent/$f" "$out/change/$f"; then
        echo "same      $f"
    else
        echo "DIFFERENT $f"
        diff "$out/parent/$f" "$out/change/$f" | head -n 20 || true
        fail=1
    fi
done
echo "outputs in $out" >&2
exit $fail
