#!/bin/sh
# bench_compare.sh — run the benchmarks the fan-out pipeline affects,
# repeated -count=5, into benchstat-compatible output.
#
# Usage:
#   scripts/bench_compare.sh [output-file]
#   scripts/bench_compare.sh rejoin
#
# Typical comparison workflow:
#   git checkout main   && scripts/bench_compare.sh bench_old.txt
#   git checkout branch && scripts/bench_compare.sh bench_new.txt
#   benchstat bench_old.txt bench_new.txt   # if benchstat is installed
#   go run ./cmd/benchgate -compare bench_old.txt bench_new.txt  # no install needed
#
# The output is plain `go test -bench` text, which benchstat consumes
# directly; without benchstat the raw per-run lines are still usable.
set -eu

cd "$(dirname "$0")/.."

count="${COUNT:-5}"

# The `rejoin` mode is the incremental-rejoin check (make
# bench-rejoin): it runs the BenchmarkRejoinTransfer snapshot/delta
# pair COUNT (>=5) times and feeds the result to cmd/benchgate, which
# (a) checks with a Mann-Whitney U test that the delta transfer is not
# statistically slower than the full snapshot, and (b) asserts the
# delta ships at least 5x fewer wire bytes (bytes_shipped/op medians).
if [ "${1:-}" = "rejoin" ]; then
    mkdir -p results
    out=results/bench_rejoin.txt
    echo "running: -bench BenchmarkRejoinTransfer -count=$count -> $out" >&2
    go test -run xxx -bench 'BenchmarkRejoinTransfer' -benchmem \
        -benchtime=50x -count="$count" -timeout 30m . | tee "$out"
    go run ./cmd/benchgate \
        -compare -old-sub snapshot -new-sub delta \
        -ratio-metric bytes_shipped/op -min-ratio 5 \
        "$out" "$out"
    exit $?
fi

out="${1:-bench_compare_$(git rev-parse --short HEAD 2>/dev/null || echo wip).txt}"

# Fig5/Fig6 sweep the mirror fan-out directly; FanoutBatch and
# CodecBatchWrite isolate the batch pipeline and the wire framing;
# ServeInitStorm and SnapshotRebuild isolate the sharded/epoch-cached
# init-state serving path. ApplyPath (internal/core) is the apply half:
# main-unit queue hop, EDE, delay and stage histograms, client stream,
# per event at runs of 1, 8 and 256.
pattern='BenchmarkFig5MirrorCountOverhead|BenchmarkFig6MirrorsUnderLoad|BenchmarkFanoutBatch|BenchmarkCodecBatchWrite|BenchmarkServeInitStorm|BenchmarkSnapshotRebuild'

echo "running: -bench '$pattern|BenchmarkApplyPath' -count=$count -> $out" >&2
{
    go test -run xxx -bench "$pattern" -benchmem -count="$count" -timeout 60m .
    go test -run xxx -bench 'BenchmarkApplyPath' -benchmem -count="$count" -timeout 30m ./internal/core
} | tee "$out"

echo "wrote $out (feed two such files to benchstat to compare)" >&2
