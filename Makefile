# Test tiers. tier1 is the gate every change must pass; tier1-race runs the
# protocol-critical packages under the race detector; tier2 adds the race
# detector everywhere; chaos replays the seeded fault-injection schedules
# (internal/chaos, seeds 1 / 42 / 0xc0ffee / 0xdeadbeef) under -race.
# lint runs nrlint, the NR-specific static analyzers (DESIGN.md §10).

GO ?= go

# Where make bench writes its JSON report: an untracked file (.gitignore);
# the committed baseline is benchmark/results/baseline.json.
# Override with `make bench BENCH_OUT=/tmp/bench.json`.
BENCH_OUT ?= bench-local.json

# The packages where a data race is a protocol bug, not just a test bug.
RACE_PKGS = . ./collections ./internal/core ./internal/log ./internal/rwlock ./internal/trace ./internal/obs ./internal/obs/tsdb ./internal/obs/prom ./cmd/nrtop ./internal/miniredis ./internal/persist ./internal/ds

.PHONY: tier1 tier1-race tier2 chaos chaos-recover check test build vet race bench lint lint-sarif

tier1: ## gofmt + one-benchmark rule + build + vet + lint + unit tests (the acceptance gate)
	test -z "$$(gofmt -l .)"
	! grep -rn '^func Benchmark' --include='*_test.go' . | grep -v '^./benchmark/'
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./cmd/nrlint ./...
	$(GO) test ./...

tier1-race: ## race detector on the protocol-critical packages, and on the durable path's kill-and-recover cuts
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run 'Recover' ./internal/chaos

lint: ## nrlint: NR layout, hot-path, and concurrency-contract invariants (DESIGN.md §10)
	$(GO) run ./cmd/nrlint -v ./...

lint-sarif: ## nrlint with machine-readable output for code scanning
	$(GO) run ./cmd/nrlint -json -sarif nrlint.sarif ./... > nrlint.json

check: tier1 tier1-race ## the default pre-commit gate: tier1 + race tier

tier2: ## vet + full race-detector run
	$(GO) vet ./...
	$(GO) test -race ./...

chaos: ## fault-injection suite under the race detector, fixed seeds
	$(GO) test -race -count=1 -v ./internal/chaos/

chaos-recover: ## kill-and-recover matrix only: crash/SIGKILL/torn-tail recovery under -race
	$(GO) test -race -count=1 -v -run 'Recover|KillAndRecover' ./internal/chaos/

bench: ## the repository's benchmark (BENCHMARK.json, benchmark/README.md): all five workloads, end-to-end and per-layer metrics
	$(GO) run ./benchmark -workload all -out $(BENCH_OUT)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...
