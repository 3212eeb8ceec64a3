# Developer entry points. Everything here is a thin wrapper over the Go
# toolchain and cmd/sweep; CI runs the same commands.

GO ?= go

.PHONY: build test race race-pools inline-check bench bench-arbiters bench-router bench-standalone bench-setup bench-check cover cover-check fmt vet figures

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector, short mode (CI's default).
race:
	$(GO) test -race -short ./...

# race-pools points the race detector at the pooled/arena hot paths
# specifically: the engine's event queue and its 64-node chunks, the
# packet arena and its geometric growth, the router's one-block slab,
# ring headers and nomination FIFO bound, the workload injection queues,
# the network build's link wiring, and the whole-run allocation pin over
# a 4x4 point (TestWholeRunAllocs) — plus the router's one observation
# seam (the watch: the oracle, metrics and flight recorder installed
# alone and together, TestMetricsObservationOnly and the watched
# allocation pin), the invariant checker (its own suite and the tests
# that run it over a network: network's TestInvariant* and workload's
# TestShardedRunMatchesEngineRun and TestTorusAutomorphismInvariance),
# obs counters and flight rings, the replicated/checked/instrumented
# Runner fan-outs, the cached Runner's per-cell persistence from pool
# workers, and the pool's panic containment — and the bitplane
# arbitration kernels (the parallel differential suite drives every
# word-parallel kernel against its scalar reference from concurrent
# subtests, racing the shared mask/scratch code paths). The whole suite
# runs under -race -short in CI's full job as well.
race-pools:
	$(GO) test -race -count=1 \
		-run 'Queue|Arena|Ring|Alloc|Slab|Engine|Generator|Invariant|Automorphism' \
		./internal/sim ./internal/packet ./internal/vc ./internal/router ./internal/workload ./internal/network
	$(GO) test -race -count=1 -run 'Differential|Matrix|Bitplane' ./internal/core
	$(GO) test -race -count=1 ./internal/check ./internal/obs
	$(GO) test -race -count=1 -run 'Replicated|CheckedRunMatches|Metrics|Cache|Panic' ./internal/experiment
	$(GO) test -race -count=1 -run 'Metrics|Flight' ./internal/router

# inline-check fails when the compiler stops inlining a hot-path helper:
# the router's per-packet and per-ring scan helpers, the ring header
# operations and the credit-pool operations the arbitration loops call.
# Each must stay within the inlining budget (go build -gcflags=-m
# prints "can inline" for it); a helper that outgrows it turns a field
# read into a call on every packet a scan visits.
INLINE_FUNCS = \
	'(*Router).reset' '(*Router).markOld' '(*Router).touchVC' '(*Router).lowerOldAt' \
	'(*Router).outFree' '(*Router).freeOutputs' '(*Router).scanRings' \
	'(*Router).leastRecent' '(*Router).holdsPackets' \
	'(*Ring).At' '(*Ring).Len' '(*Ring).Full' '(*Ring).Push' '(*Ring).Init' \
	'(*Credits).Available' '(*Credits).Reserve' '(*Credits).Release'

inline-check:
	@out="$$($(GO) build -gcflags=-m ./internal/router ./internal/vc 2>&1 | sed 's/^[^ ]*: //')"; \
	status=0; \
	for f in $(INLINE_FUNCS); do \
		printf '%s\n' "$$out" | grep -qxF "can inline $$f" || { echo "inline-check: $$f no longer inlines"; status=1; }; \
	done; \
	[ $$status -eq 0 ] && echo "inline-check: all hot-path helpers inline"; \
	exit $$status

# cover writes the atomic-mode coverage profile for the whole module.
cover:
	$(GO) test -covermode=atomic -coverprofile=cover.out ./...

# cover-check fails when any package's statement coverage drops below
# its checked-in floor (COVERAGE.json). Regenerate floors after
# intentionally raising coverage with:
#   go run ./cmd/covercheck -profile cover.out -write
cover-check: cover
	$(GO) run ./cmd/covercheck -profile cover.out -floors COVERAGE.json

# bench runs the benchmark suite and writes BENCH_10.json into bench-out/.
bench:
	$(GO) run ./cmd/sweep -bench -out bench-out

# bench-arbiters runs the per-kernel Arbitrate microbenchmarks (bitplane
# kernels and their retained scalar references side by side).
bench-arbiters:
	$(GO) test ./internal/core -run '^$$' -bench 'Arbitrate' -benchmem

# bench-router runs the router clock-edge microbenchmarks (one router
# under a light and a saturating offered load, SPAA-rotary, WFA-rotary and
# PIM1), then times the nine points of simbench's torus4-sweep workload
# one by one (BenchmarkTorusPoint, which also reports ns per node-cycle).
bench-router:
	$(GO) test ./internal/router -run '^$$' -bench 'RouterTick' -benchmem
	$(GO) test . -run '^$$' -bench 'TorusPoint' -benchmem

# bench-standalone runs the standalone model microbenchmarks: one
# 1,000-cycle run per op of each Figure 8 algorithm at loads 0.5 and 1.0,
# with every output free (Figure 8) and at Figure 9's output occupancies.
bench-standalone:
	$(GO) test ./internal/standalone -run '^$$' -bench 'Model' -benchmem

# bench-setup times the construction of one timing point (engine,
# statistics collector and network.New) on 4x4, 8x8 and 16x16 tori for
# each router algorithm, with allocations and bytes per build.
bench-setup:
	$(GO) test ./internal/network -run '^$$' -bench 'NetworkNew' -benchmem

# bench-check compares a fresh run against the committed baseline and
# fails on >15% calibration-normalized regression in ns/simulated-cycle
# (or allocations). This is the CI perf gate.
bench-check:
	$(GO) run ./cmd/sweep -bench -out bench-out -bench-baseline BENCH_10.json

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

figures:
	$(GO) run ./cmd/sweep -quick -figure all -out figures-out
