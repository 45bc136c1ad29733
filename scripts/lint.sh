#!/usr/bin/env bash
# lint.sh — the repository's one-shot lint gate.
#
# Runs exactly what the CI lint job runs, in the same order, so a clean
# local `./scripts/lint.sh` means a green lint job:
#
#   1. gofmt       (formatting, includes testdata fixtures)
#   2. go vet      (toolchain vet)
#   3. staticcheck (version pinned in tools/tools.go)
#   4. hybridlint  (the repo's contract analyzers: detclock, mapiter,
#                   ioerr, bufalias, confine — see internal/analysis —
#                   plus the allocbudget gate, which
#                   replays compiler escape analysis against the budgets
#                   committed in allocbudget.txt; any over-budget hot-path
#                   function makes hybridlint, and this script, exit
#                   non-zero)
#
# Environment:
#   SKIP_STATICCHECK=1   skip step 3 (e.g. offline and not installed;
#                        hybridlint and vet still run)
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

echo "== gofmt" >&2
out="$(gofmt -l .)"
if [ -n "$out" ]; then
    echo "files need gofmt:" >&2
    echo "$out" >&2
    fail=1
fi

echo "== go vet" >&2
go vet ./... || fail=1

if [ "${SKIP_STATICCHECK:-0}" != "1" ]; then
    echo "== staticcheck" >&2
    # Single source of truth for the pinned version: tools/tools.go.
    version="$(sed -n 's|.*honnef.co/go/tools/cmd/staticcheck.*// version: \(.*\)$|\1|p' tools/tools.go)"
    if [ -z "$version" ]; then
        echo "could not read staticcheck version from tools/tools.go" >&2
        exit 2
    fi
    bin="$(go env GOPATH)/bin/staticcheck"
    if ! "$bin" -version 2>/dev/null | grep -q "$version"; then
        go install "honnef.co/go/tools/cmd/staticcheck@$version"
    fi
    "$bin" ./... || fail=1
else
    echo "== staticcheck (skipped: SKIP_STATICCHECK=1)" >&2
fi

# -timing prints a per-analyzer wall-time line to stderr so a slow
# analyzer shows up here rather than as a mystery in CI runtimes.
echo "== hybridlint" >&2
go run ./cmd/hybridlint -timing ./... || fail=1

if [ "$fail" -ne 0 ]; then
    echo "lint failed" >&2
    exit 1
fi
echo "lint OK" >&2
