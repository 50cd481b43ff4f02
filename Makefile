# Test tiers. tier1 is the gate every change must pass; tier1-race runs the
# protocol-critical packages under the race detector, plus the whole chaos
# suite (panic and stall schedules — the only evidence for the containment
# that ships — kill-and-recover cuts and multi-log schedules); tier2 adds
# the race detector everywhere; chaos replays the seeded fault-injection
# schedules (internal/chaos, seeds 1 / 42 / 0xc0ffee / 0xdeadbeef) under
# -race, verbosely and uncached.
# NR's own invariants (spin waits yield, the lock order, no I/O on the hot
# path) are held by tests and by one tier1 grep (DESIGN.md §10); another
# confines unsafe to the two files that need it (UNSAFE_FILES), and two
# more confine the cross ticket (DESIGN.md §16): only cross.go reads a
# replica's crossDone, and only replayTo (replay.go) calls nextTicket, once,
# under the log's write lock. fuzz runs
# every Fuzz* target with random inputs (their seed corpora already run in
# tier1). figures regenerates results/nrbench_all.txt; memtables checks
# its three memory tables, the only rows measured on the real structures.

GO ?= go

# Where make bench writes its JSON report: an untracked file (.gitignore);
# the committed baseline is benchmark/results/baseline.json.
# Override with `make bench BENCH_OUT=/tmp/bench.json`.
BENCH_OUT ?= bench-local.json

# The packages where a data race is a protocol bug, not just a test bug.
RACE_PKGS = . ./collections ./internal/core ./internal/log ./internal/rwlock ./internal/trace ./internal/histogram ./internal/obs ./internal/obs/tsdb ./internal/obs/prom ./internal/obs/prom/promtest ./cmd/nrtop ./internal/miniredis ./internal/persist ./internal/ds ./internal/baseline ./cmd/nrredis

# The hot-path packages: no non-test file of theirs may import os or
# syscall, except internal/trace/dump.go, the flight recorder's failure dump.
HOTPATH_DIRS = internal/core internal/log internal/rwlock internal/obs internal/histogram internal/trace

# The only non-test files that may import unsafe: the log's cell layout and
# miniredis's zero-copy views (store.go: view of the read buffer, and
# unpackPair's of an interned update pair).
UNSAFE_FILES = ./internal/log/log.go ./internal/miniredis/store.go

.PHONY: tier1 tier1-race tier2 chaos chaos-recover fuzz check test build vet race bench figures memtables

tier1: ## gofmt + one-benchmark rule + hot-path import rule + unsafe and cross-ticket confinement + build + vet + unit tests (the acceptance gate)
	test -z "$$(gofmt -l .)"
	! grep -rn '^func Benchmark' --include='*_test.go' . | grep -v '^./benchmark/'
	! grep -rnE 'atomic\.(Add|And|Or|Load|Store|Swap|CompareAndSwap)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)\(' --include='*.go' --exclude='*_test.go' .
	! grep -nE 'time\.(Now|Since)\(' --exclude='*_test.go' internal/core/*.go
	! grep -rlE '"(os|syscall)(/[^"]*)?"|"io/ioutil"' --include='*.go' --exclude='*_test.go' $(HOTPATH_DIRS) | grep -vx 'internal/trace/dump.go'
	! grep -rl '"unsafe"' --include='*.go' --exclude='*_test.go' . | grep -vxF $(UNSAFE_FILES:%=-e %)
	! grep -n 'crossDone\.' --exclude='*_test.go' internal/core/*.go | grep -v '^internal/core/cross\.go:'
	test "$$(grep -c '\.nextTicket' --exclude='*_test.go' internal/core/*.go | grep -v ':0$$')" = internal/core/replay.go:1
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

tier1-race: ## race detector on the protocol-critical packages and the whole chaos suite
	$(GO) test -race $(RACE_PKGS) ./internal/chaos

check: tier1 tier1-race ## the default pre-commit gate: tier1 + race tier

tier2: ## vet + full race-detector run
	$(GO) vet ./...
	$(GO) test -race ./...

chaos: ## fault-injection suite under the race detector, fixed seeds
	$(GO) test -race -count=1 -v ./internal/chaos/

chaos-recover: ## kill-and-recover matrix only: crash/SIGKILL/torn-tail recovery under -race
	$(GO) test -race -count=1 -v -run 'Recover|KillAndRecover' ./internal/chaos/

fuzz: ## every Fuzz* target that go test -list finds, 30 s each with random inputs; a failing input is saved under the package's testdata/fuzz
	set -e; for p in $$($(GO) list ./...); do \
		ts=$$($(GO) test -list '^Fuzz' "$$p"); \
		for t in $$(echo "$$ts" | grep '^Fuzz' || true); do \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 30s -parallel 2 "$$p"; \
		done; \
	done

bench: ## the repository's benchmark (BENCHMARK.json, benchmark/README.md): all five workloads, end-to-end and per-layer metrics
	$(GO) run ./benchmark -workload all -out $(BENCH_OUT)

figures: ## regenerate results/nrbench_all.txt, every §8 figure (results/README.md); about 15 minutes, so not a CI step
	$(GO) run ./cmd/nrbench -all -ops 600 > results/nrbench_all.txt.tmp
	mv results/nrbench_all.txt.tmp results/nrbench_all.txt

# memtables compares each memory table's 200000-item row and its "at items="
# summary, never the wall-time line. The heap these rows measure moves by up
# to 0.02 MB between runs and between GOMAXPROCS 1 and 8, so each number must
# lie within 0.1 of the committed one (which also absorbs a last-digit flip of
# the rounded ratio); every other word must match.
memtables: ## re-measure the Fig. 5f/6c/7e memory tables (about 5 s) and fail if they drifted from results/nrbench_all.txt
	for f in 5f 6c 7e; do $(GO) run ./cmd/nrbench -fig $$f || exit 1; done | awk -v tol=0.1 ' \
		/^=== Figure (5f|6c|7e):/ { on = 1 } /^$$/ { on = 0 } \
		!(on && /^(200000 |at items=)/) { next } \
		NR == FNR { want[++n] = $$0; next } \
		{ print; nw = split(want[++m], w, /[ =,:x]+/); ng = split($$0, g, /[ =,:x]+/); bad += nw != ng; \
		  for (i = 1; i <= nw; i++) if (w[i] != g[i] && !(w[i] ~ /^[0-9.]+$$/ && g[i] ~ /^[0-9.]+$$/ && (w[i] - g[i]) ^ 2 <= tol ^ 2)) bad++ } \
		END { if (bad || m != n || n != 6) { printf "memtables: rows differ from results/nrbench_all.txt, which has:\n"; for (i = 1; i <= n; i++) print want[i]; exit 1 } }' \
		results/nrbench_all.txt -

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...
