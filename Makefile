# Standard developer entry points. Everything is stdlib-only Go.

GO ?= go

# make cover fails if any of these packages drop below this (percent).
COVER_MIN ?= 80
COVER_PKGS ?= ./internal/obs ./internal/health ./internal/replica ./internal/group ./internal/codec ./internal/shard ./internal/overload ./internal/netsim ./internal/session ./internal/rpc ./internal/kernel ./internal/wire ./internal/core

# Seeds make chaos replays; override to explore: make chaos CHAOS_SEEDS="7 8 9"
CHAOS_SEEDS ?= 1 2 3

# Seeds make stress replays; the overload suite is cheaper than chaos so it
# runs more seeds by default.
STRESS_SEEDS ?= 1 2

.PHONY: all build test race vet lint bench bench-short benchmark-check chaos stress cover fuzz-short experiments examples loc clean

all: vet lint test race chaos stress bench-short fuzz-short benchmark-check build

# Fuzz regression gate: replays every committed corpus entry (and the
# in-test seeds) through the fuzz targets without generating new inputs —
# `-run '^Fuzz'` without `-fuzz` is Go's corpus-regression mode. Cheap
# enough to ride in `make all`; grow the corpora with e.g.
# go test -fuzz=FuzzPayloadHeaders -fuzztime=30s ./internal/wire
FUZZ_PKGS ?= ./internal/wire ./internal/obs ./internal/codec
fuzz-short:
	$(GO) test -count=1 -run '^Fuzz' $(FUZZ_PKGS)

# Fast-path gate: the allocation-budget tests (bypass must be 0 allocs/op,
# stub and cache at or under their enforced ceilings) plus a one-iteration
# proxybench smoke run and the TCP layer's own micro-benchmark (a loopback
# ping-pong between two endpoints in one process, alone and beside 64 idle
# connections). Cheap enough to ride in `make all`.
bench-short:
	$(GO) test -count=1 -run 'TestAllocBudget' .
	$(GO) run ./cmd/proxybench -only E1 -ops 25
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkTCPPingPong' -benchtime 20000x ./internal/netsim

# The repository benchmark is a module of its own (benchmark/go.mod), so
# `go vet ./...` and `go test ./...` at the root never see it. Its tests
# build proxyd from this checkout and smoke-run all four workloads (~25 s).
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# Every package is measured and printed; the target fails at the end,
# naming each package below the minimum (or whose tests failed).
cover:
	@below=""; for pkg in $(COVER_PKGS); do \
		if ! $(GO) test -coverprofile=cover.profile $$pkg; then below="$$below $$pkg(tests-failed)"; continue; fi; \
		total=$$($(GO) tool cover -func=cover.profile | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "$$pkg coverage: $$total% (minimum $(COVER_MIN)%)"; \
		awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || below="$$below $$pkg($$total%)"; \
	done; \
	if [ -n "$$below" ]; then echo "FAIL: below $(COVER_MIN)%:$$below"; exit 1; fi

# Seeded fault-injection suite: crash/restart/partition schedules against
# live deployments, under the race detector. A failing seed replays
# exactly: CHAOS_SEED=<n> go test -race -run TestChaos .
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "chaos seed $$seed"; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'TestChaos' . || exit 1; \
	done

# Seeded overload suite: drives deployments past capacity and through
# partitions, asserting shedding, retry-budget, and hedging invariants from
# registry metrics. Replay a failing seed: CHAOS_SEED=<n> go test -race -run TestStress .
stress:
	@for seed in $(STRESS_SEEDS); do \
		echo "stress seed $$seed"; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'TestStress' . || exit 1; \
	done

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The later runs repeat the tests over state several goroutines reach at
# once — a sender's cut, the flusher's sweep and the TCP write path; the
# dedup lookup on the receive pump against commits from handler workers;
# a recycled reply waiter against late responses and Close, on every call
# path that waits on one; a pooled reply frame, released by one owner and
# read into again by a connection's reader — so a rare interleaving gets
# ten chances, not one.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Coalescer|Trains|TCP' ./internal/wire ./internal/netsim .
	$(GO) test -race -count=10 -run 'Dedup|Session|Retransmi|Pushback|Expired|AtLeastOnce' ./internal/kernel ./internal/rpc
	$(GO) test -race -count=10 -run 'Pending|LateReply|Closed|Ping' ./internal/kernel ./internal/rpc ./internal/health
	$(GO) test -race -count=10 -run 'PooledReply' ./internal/wire ./internal/netsim ./internal/kernel ./internal/core

vet:
	$(GO) vet ./...

# Static analysis. The gate runs a PINNED staticcheck via `go run`, so CI
# and every dev machine apply the exact same check set instead of whatever
# version happens to be on PATH. The -version probe distinguishes "cannot
# fetch the tool" (offline checkout: fall back, loudly) from "the tool ran
# and found problems" (fail the build — never swallowed by a fallback).
STATICCHECK_VERSION ?= 2025.1.1
STATICCHECK_PKG = honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
lint:
	@if $(GO) run $(STATICCHECK_PKG) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK_PKG) ./...; \
	elif command -v staticcheck >/dev/null 2>&1; then \
		echo "lint: cannot fetch staticcheck@$(STATICCHECK_VERSION) (offline?); using staticcheck from PATH"; \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck unavailable (no module fetch, none on PATH); falling back to go vet"; \
		$(GO) vet ./...; \
	fi

bench:
	$(GO) test -bench . -benchmem .

experiments:
	$(GO) run ./cmd/proxybench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/filecache
	$(GO) run ./examples/directory
	$(GO) run ./examples/migration
	$(GO) run ./examples/bank
	$(GO) run ./examples/typedcalc
	$(GO) run ./examples/newsfeed

# Non-test Go lines in the hot-path packages and in the whole repository
# (benchmark/ included), then the command-line flags each daemon and CLI
# defines: the figures ROADMAP's LOC and surface targets track.
loc:
	@hot=0; for p in core kernel rpc wire netsim session shard replica; do \
		n=$$(find internal/$$p -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		hot=$$((hot + n)); printf '%-18s %6d\n' internal/$$p $$n; \
	done; printf '%-18s %6d\n' hot-path $$hot
	@printf '%-18s %6d\n' repository $$(find . -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@for c in proxyd proxyctl; do \
		printf '%-18s %6d\n' "$$c flags" $$(find cmd/$$c -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -cE 'flag\.(Bool|String|Int|Int64|Uint|Uint64|Duration|Float64|Var|Func)\('); \
	done

clean:
	$(GO) clean ./...
