#!/usr/bin/env bash
# Regenerate the machine-readable benchmark ledgers (JSON Lines):
#   * results/BENCH_placement.json — placement-time rows (DESIGN.md §3.10)
#   * results/BENCH_service.json   — service-throughput rows (DESIGN.md §3.12)
#
# Placement rows come from the placement-time benchmarks run with
# NETPACK_BENCH_JSON set so every measured cell appends a row:
#   * table_mip_vs_dp      — exact bnb vs scratch vs DP per instance
#   * fig10_placement_time — NetPack DP wall-clock per (servers, jobs) cell
#   * fig10_xl             — 100 jobs on a 50K-server fat-tree (must
#                            stay < 1 s)
# Service rows come from bench_service — the open-loop Philly replay over
# the Fig. 10 cluster — in both driver modes (threaded + deterministic),
# plus a NETPACK_THREADS sweep of a 200K-job replay in both modes (long
# enough that run-to-run noise stays comparable to the gap being
# measured) over the powers of two up to this machine's core count: a
# row's `threads` column is the worker count that ran, so a sweep point
# above nproc would only repeat the nproc row. The threaded driver runs
# the deterministic driver's exact batch schedule and must stay at or
# above it wherever real cores exist; on a single-core container the
# producer/consumer hand-off is pure overhead, so threaded lands a few
# percent under deterministic there — the batched-drain queue, gather
# window, and notify threshold are what close the seed's 46% inversion
# (DESIGN.md §3.12, EXPERIMENTS.md bench_service).
#
# Usage: scripts/bench.sh [output.json] [service_output.json]
#   (defaults results/BENCH_placement.json, results/BENCH_service.json)
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-results/BENCH_placement.json}
svc_out=${2:-results/BENCH_service.json}
mkdir -p "$(dirname "$out")" "$(dirname "$svc_out")"

cargo build --release -p netpack-bench

rm -f "$out"
echo "bench: table_mip_vs_dp (bnb + capped scratch + dp)"
NETPACK_BENCH_JSON="$out" ./target/release/table_mip_vs_dp > /dev/null
echo "bench: fig10_placement_time (quick grid)"
NETPACK_BENCH_JSON="$out" NETPACK_QUICK=1 ./target/release/fig10_placement_time > /dev/null
echo "bench: fig10_xl (50K-server warehouse cell)"
NETPACK_BENCH_JSON="$out" ./target/release/fig10_xl > /dev/null

rm -f "$svc_out"
echo "bench: bench_service (1M-job open-loop replay, threaded)"
NETPACK_BENCH_JSON="$svc_out" ./target/release/bench_service > /dev/null
echo "bench: bench_service (50K-job open-loop replay, deterministic)"
NETPACK_BENCH_JSON="$svc_out" NETPACK_QUICK=1 NETPACK_SERVICE_MODE=deterministic \
    ./target/release/bench_service > /dev/null
for ((t = 1; t <= $(nproc); t *= 2)); do
    echo "bench: bench_service thread sweep (200K jobs, NETPACK_THREADS=$t, both modes)"
    NETPACK_BENCH_JSON="$svc_out" NETPACK_SERVICE_JOBS=200000 NETPACK_THREADS=$t \
        ./target/release/bench_service > /dev/null
    NETPACK_BENCH_JSON="$svc_out" NETPACK_SERVICE_JOBS=200000 NETPACK_THREADS=$t \
        NETPACK_SERVICE_MODE=deterministic ./target/release/bench_service > /dev/null
done

./target/release/bench_json_check "$out" "$svc_out"
