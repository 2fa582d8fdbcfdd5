#!/bin/sh
# Repository verification: vet, formatting, determinism lint, and the
# full test suite under the race detector. Run before every push.
#
#   ./verify.sh            full check (vet of both modules + gofmt -s +
#                          mmvet + race tests)
#   ./verify.sh lint       determinism static analysis only (mmvet: five
#                          analyzers, no flags, no baseline — any finding,
#                          malformed //mmvet: annotations included, fails)
#
# The repository's one benchmark is perfbench (bash perfbench/run.sh).
set -e

if [ "$1" = "lint" ]; then
    exec go run ./cmd/mmvet ./...
fi

echo "== go vet =="
go vet ./...
# perfbench is its own module and compiles against the netsim and radio
# API; vet it so a break shows here and not only in CI.
(cd perfbench && go vet ./...)

echo "== gofmt -s =="
badfmt=$(gofmt -s -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt -s needed:"
    echo "$badfmt"
    exit 1
fi

echo "== mmvet =="
go run ./cmd/mmvet ./...

echo "== go test -race =="
# Under the race detector the root package took 7 min 48 s on a 2-vCPU
# host (Go 1.24), about 5 min of it TestD1Goldens. The 45-minute timeout
# leaves room for slower and 1-CPU machines, where go test's default
# 10 minutes can run out.
go test -race -timeout 45m ./...

echo "OK"
