#!/bin/sh
# verify.sh — the full pre-merge gate: build, every example, vet,
# tests, race tests, and gofmt cleanliness. Run via `make verify` or directly.
set -eu

cd "$(dirname "$0")/.."

# Not a gate: ROADMAP states its code-size target in non-test Go lines
# outside bench/, and this prints that count.
echo "==> non-test Go lines outside bench/: $(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"

echo "==> go build ./..."
go build ./...

# The examples are built above but only a run shows they still work;
# each must exit 0.
for ex in examples/*/; do
    echo "==> go run ./${ex%/}"
    go run "./${ex%/}" >/dev/null
done

echo "==> go vet ./..."
go vet ./...

# The benchmark harness is a module of its own (bench/go.mod), so the
# ./... patterns above never build it — yet it calls storage.Write/Read
# and store.Open, and an internal API change must not break it unseen.
echo "==> go vet -C bench ."
go vet -C bench .

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "==> go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

# TestSmoke drives all four workloads traced against spawned rspd
# children (ring3 is three -cluster-config processes) plus an untraced
# contribute that ends in kill -9, and fails on any failed op or
# output check.
echo "==> bench harness tests + smoke (real rspd children, all workloads)"
go test -C bench .

echo "==> commit-pipeline benchmark smoke (1 iteration)"
go test -run '^$' -bench=Commit -benchtime=1x ./internal/store/...

# A leader and a follower over loopback TCP, each commit acknowledged
# through the semi-synchronous barrier.
echo "==> replication benchmark smoke (1 iteration)"
go test -run '^$' -bench ReplicatedCommit -benchtime 1x ./internal/replication

# The read-path benchmarks (BenchmarkDescribeHotEntity among them) are
# run once each so they keep compiling and running.
echo "==> read-path benchmark smoke (1 iteration)"
go test -run '^$' -bench . -benchtime 1x ./internal/search ./internal/history ./internal/aggregate

# The token benchmarks run once each so they keep running, not just
# compiling. BenchmarkSignParallel is the one that shows whether signs
# for different devices serialize on the issuer.
echo "==> token-signing benchmark smoke (1 iteration)"
go test -run '^$' -bench . -benchtime 1x ./internal/blindsig

# The serving chain rspd -quiet mounts, over the directory route: its
# B/op shows whether a middleware copies the response body again.
echo "==> serving-chain benchmark smoke (1 iteration)"
go test -run '^$' -bench ServeDirectory -benchtime 1x ./internal/rspserver

# The decoders recovery and replication rest on are fuzzed beyond their
# seeds on every run: the WAL frame scan (recovery replays and
# ExportFrames streams through it) and the snapshot reader. Minimizing
# each new-coverage input is capped at 1 s: at the 60 s default, one
# such input ate most of FuzzRead's 15 s (12 k execs instead of 79 k).
echo "==> fuzz WAL segment scan and snapshot reader (15 s each)"
go test -run '^$' -fuzz '^FuzzReplaySegment$' -fuzztime 15s -fuzzminimizetime 1s ./internal/store
go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 15s -fuzzminimizetime 1s ./internal/storage

echo "==> streaming smoke (100k-user world: shards -> rspd -> agent cohort, heap-gated)"
sh scripts/streaming_smoke.sh

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "verify: OK"
