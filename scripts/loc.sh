#!/usr/bin/env bash
# loc.sh — the three tracked line counts, so ROADMAP, DESIGN and issue
# acceptance criteria quote one source instead of each re-deriving a find
# command. Non-test Go only; bench/ (its own module), its build directory
# and analyzer testdata fixtures are not the program. Prints, never fails
# on a number: the bar moves with the roadmap, not with this script.
set -euo pipefail

cd "$(dirname "$0")/.."

repo="$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l)"
core="$(cat $(ls internal/core/*.go | grep -v _test.go) | wc -l)"
flashsim="$(cat $(ls internal/flashsim/*.go | grep -v _test.go) | wc -l)"

printf 'non-test Go lines, repo (outside bench/, .bench_build/, testdata/): %d\n' "$repo"
printf 'non-test Go lines, internal/core: %d\n' "$core"
printf 'non-test Go lines, internal/flashsim: %d\n' "$flashsim"
