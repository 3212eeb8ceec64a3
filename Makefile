# Developer entry points. Everything here is a thin wrapper over the Go
# toolchain and cmd/sweep; CI runs the same commands.

GO ?= go

.PHONY: build test race bench bench-arbiters bench-router bench-check cover cover-check fmt vet figures

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector, short mode (CI's default).
race:
	$(GO) test -race -short ./...

# race-pools points the race detector at the pooled/arena hot paths
# specifically: the tick-wheel scheduler, the packet arena, the router
# slab/rings, and the workload injection queues — plus the oracle and
# telemetry hook paths (invariant checker, obs counters/flight rings,
# replicated/checked/instrumented Runner fan-outs, and the daemon's
# shared metrics under concurrent scrapes), the fleet dispatch paths
# (heartbeats racing the dispatcher's liveness flips, the daemon's shard
# semaphore and drain flag under concurrent requests), and the bitplane
# arbitration kernels (the parallel differential suite drives every
# word-parallel kernel against its scalar reference from concurrent
# subtests, racing the shared mask/scratch code paths), and the spatial
# sharding assembly (per-band engine workers spinning on the wavefront's
# publish flags, the PostBuffer flush, per-shard flight slots, and the
# checker's per-router scratch under concurrent edge ticks).
race-pools:
	$(GO) test -race -count=1 \
		-run 'Wheel|Arena|Ring|Alloc|Slab|Engine|Generator|Shard' \
		./internal/sim ./internal/packet ./internal/vc ./internal/router ./internal/workload
	$(GO) test -race -count=1 -run 'Differential|Matrix|Bitplane' ./internal/core
	$(GO) test -race -count=1 ./internal/check ./internal/obs ./internal/topology
	$(GO) test -race -count=1 -run 'Replicated|CheckedRunMatches|Metrics|TorusSharded' ./internal/experiment
	$(GO) test -race -count=1 -run 'Metrics|Flight' ./internal/router
	$(GO) test -race -count=1 ./internal/fleet
	$(GO) test -race -count=1 -run 'Metrics|Pprof|Shard|Drain|Healthz|BodyLimit' ./cmd/sweepd

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

# bench-router runs the router clock-edge microbenchmarks: one router
# under a light and a saturating offered load, SPAA-rotary, WFA-rotary and
# PIM1.
bench-router:
	$(GO) test ./internal/router -run '^$$' -bench 'RouterTick' -benchmem

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
