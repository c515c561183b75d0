GO ?= go

.PHONY: build test race vet fmt verify bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# verify is the full pre-merge gate: build + vet + tests + race tests +
# the benchmark harness's tests and smoke + gofmt cleanliness.
verify:
	sh scripts/verify.sh

# bench runs the repository's benchmark (bench/, declared in
# BENCHMARK.json) against real rspd processes; see bench/README.md for
# its flags, e.g. `sh bench/run.sh --workload browse --seed 1`.
bench:
	sh bench/run.sh
