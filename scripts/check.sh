#!/bin/sh
# Repo health check: vet, formatting, staticcheck (when installed), and
# the full test suite under the race detector. CI-equivalent; run before
# sending a change. Set NCL_CHECK_SKIP_TESTS=1 to run only the static
# checks (CI's lint job does this; the race suite runs in its own job).
set -eu
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...
# perfbench is its own module (replace ncl => ../): the root ./... never
# compiles it, so an API change could break the benchmark silently.
(cd perfbench && go vet ./...)

echo "== gofmt"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed:" >&2
    echo "$badfmt" >&2
    exit 1
fi

# staticcheck is not vendored (no new module dependencies); CI installs a
# pinned version (see .github/workflows/ci.yml) and this script picks it
# up from PATH. Locally it is optional.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ($(staticcheck -version 2>/dev/null || echo unknown))"
    staticcheck ./...
else
    echo "== staticcheck"
    echo "SKIPPED: staticcheck not on PATH — install the pinned version with:" >&2
    echo "  go install honnef.co/go/tools/cmd/staticcheck@\$STATICCHECK_VERSION (see ci.yml)" >&2
fi

if [ "${NCL_CHECK_SKIP_TESTS:-0}" != "1" ]; then
    echo "== go test -race"
    go test -race ./...
    echo "== perfbench tests"
    (cd perfbench && go test ./...)
fi

echo "check OK"
