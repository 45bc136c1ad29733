#!/usr/bin/env bash
# regen_results.sh — rewrites results/full_scale_results.txt from a run of
# the whole suite, so the committed raw output is always a tool's, never a
# hand copy. The first line names the command and the commit it ran at
# ("+changes" when the tree was dirty); the wall-clock "completed in" lines
# are dropped, so two runs of one commit produce identical files.
set -euo pipefail

cd "$(dirname "$0")/.."

cmd="hybridbench -exp all -scale full -jobs 2"
commit="$(git rev-parse --short HEAD)"
if [ -n "$(git status --porcelain -- . ':!results')" ]; then
    commit="$commit+changes"
fi

out="results/full_scale_results.txt"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
go run ./cmd/hybridbench -exp all -scale full -jobs 2 >"$tmp"
{
    printf '# %s @ %s\n' "$cmd" "$commit"
    grep -v 'completed in' "$tmp"
} >"$out"
echo "wrote $out" >&2
