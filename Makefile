GO ?= go

.PHONY: all build vet test race flake ci metrics-lint status-smoke takeover-smoke bench-smoke chaos fuzz bench bench-compare bench-rejoin bench-serve figures clean

all: ci

build:
	$(GO) build ./...

# go vet plus formatting: an unformatted file fails the gate.
vet:
	$(GO) vet ./...
	@fmt="$$(gofmt -l .)"; test -z "$$fmt" || { echo "gofmt -l . is not clean:"; echo "$$fmt"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Boots a cluster, serves its registry over HTTP, scrapes /metrics,
# and validates Prometheus-text conformance plus the declarations:
# every declared family present with its TYPE and HELP, none undeclared.
metrics-lint:
	$(GO) run ./cmd/metricslint

# Boots a 2-mirror cluster with a live adaptation controller, fetches
# /cluster/status over real HTTP, and asserts the aggregated status
# document is well-formed (links, sites, checkpoint progress, regime).
status-smoke:
	$(GO) run ./cmd/statussmoke

# Wire-takeover end-to-end under the race detector: central + standby
# + survivor as TCP-connected sites of the runtime mirrord ships
# (internal/site), kill the central, assert the standby promotes (or
# the mirrors elect), the survivor redials, and the cluster converges
# byte-exact in epoch 1; plus the promoted status document, the idle
# central the probe must spare, and the runtime's stop gate. The
# admission tests ride along: mirrors started after their central, a
# crashed or restarted mirror asking to rejoin, and the central's
# handling of each RECOVERY_REQ.
takeover-smoke:
	$(GO) test -race -count=1 -run 'TestWireTakeover|TestTakeover|TestPromoted|TestWireRejoin|TestCentralFirstAdmitsMirrors|TestRecoveryRequest' ./internal/site

# Repeats the timing-sensitive suites under the race detector: the
# site runtime, the figure smoke shapes, core, the registry's concurrent
# get-or-create, the histogram's concurrent record/read/export, the
# init-state storm and snapshot-immutability tests
# of ede and httpfront, the checkpoint coordinator's pacing, the
# virtual-CPU ledger, and the cluster tests that run over the site
# runtime, pin chaos replay, check the stage decomposition, or compare
# the chaos rig's promotion with the TCP standby's (both drive the same
# takeover node).
flake:
	$(GO) test -race -count=10 ./internal/site ./internal/figures ./internal/core ./internal/obs ./internal/metrics ./internal/ede ./internal/httpfront ./internal/checkpoint ./internal/costmodel
	$(GO) test -race -count=10 -run 'TestCluster|TestDataLink|TestChaosDeterministicReplay|TestPromotionEquivalence|TestStageSum' ./internal/cluster

# Builds the frozen wall-clock benchmark (bench/, a nested module that
# `go build ./...` does not reach) against the working tree and runs
# its quick pass, which correctness-checks all four workloads — so an
# API break against bench/ fails here, not in the benchmark pipeline.
bench-smoke:
	bash bench/run.sh -quick

# Full gate: what CI runs and what every change must keep green.
ci: build vet race flake metrics-lint status-smoke takeover-smoke chaos bench-smoke

# Deterministic fault-injection sweep under the race detector: 32
# seeded runs of each schedule class — "mirror" crash-restarts a
# mirror, "central" kills the central site and promotes the
# warm-standby — while machine-checking the mirroring invariants
# (including invariant 7, lossless promotion). A failing seed replays
# with scripts/chaos_repro.sh <seed>.
chaos:
	$(GO) run -race ./cmd/chaosrunner -seeds 32 -class all

# Short fuzz pass over the wire codec and the checkpoint control
# plane (the checked-in corpora always run as regular tests).
fuzz:
	$(GO) test -run xxx -fuzz FuzzCodecCorrupt -fuzztime 20s ./internal/event
	$(GO) test -run xxx -fuzz FuzzBatchFrame -fuzztime 20s ./internal/event
	$(GO) test -run xxx -fuzz FuzzCheckpointControl -fuzztime 20s ./internal/checkpoint
	$(GO) test -run xxx -fuzz FuzzPromotionHandshake -fuzztime 20s ./internal/checkpoint
	$(GO) test -run xxx -fuzz FuzzRegimeDirective -fuzztime 20s ./internal/adapt
	$(GO) test -run xxx -fuzz FuzzStateDelta -fuzztime 20s ./internal/statedelta

# One fast pass over every figure and ablation benchmark.
bench:
	$(GO) test -run xxx -bench 'Fig|Ablation' -benchtime=1x .

# Repeated runs of the fan-out-sensitive benchmarks, benchstat-ready.
bench-compare:
	./scripts/bench_compare.sh

# Incremental-rejoin gate: the snapshot vs cut-anchored delta rejoin
# transfer, Mann-Whitney-checked on convergence time plus a >=5x
# wire-byte ratio (cmd/benchgate -ratio-metric).
bench-rejoin:
	./scripts/bench_compare.sh rejoin

# The init-state serving-path benchmarks (storm throughput and
# snapshot-cache rebuild cost).
bench-serve:
	$(GO) test -run xxx -bench 'ServeInitStorm|SnapshotRebuild' -benchmem .

figures:
	$(GO) run ./cmd/benchrunner -fig all

clean:
	rm -f adaptmirror.test bench_*.txt
