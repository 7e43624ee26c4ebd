#!/usr/bin/env bash
# The repo benchmark, one command.
#
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh --workload NAME      one workload
#       [--seed N] [--seconds S]          input seed (1), measuring time (20)
#       [--trace 0|1]                     1: per-layer metrics, spans written
#                                         to benchmark/out/trace-NAME.json
#   benchmark/run.sh --selfcheck          two sets of every workload; fails if
#                                         a median is worse in the second by
#                                         more than the metric's bound
#   benchmark/run.sh --spread N           N seeds per workload; prints each
#                                         metric's median and quartile spread
#
# Builds the driver crate with `cargo build --release --offline`, runs each
# workload in a process of its own, and ends each run with the result line
# BENCHMARK.json's contract asks for. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# The benchmark pins worker counts through config fields; no NETPACK_*
# variable may reach the program, so `from_env` defaults are the library's.
for var in $(compgen -v | grep '^NETPACK_' || true); do unset "$var"; done

workload="" seed=1 seconds=20 trace=0 mode=run count=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            # `--trace 0|1`, or bare `--trace` for 1.
            if [ $# -ge 2 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then trace="$2"; shift 2
            else trace=1; shift; fi ;;
        --selfcheck) mode=selfcheck; shift ;;
        --spread) mode=spread; count="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: the result line must be the last of stdout.
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/netpack-benchmark"
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

workloads="service_saturate warehouse_batch dense_batch sim_sweep"
[ -z "$workload" ] || workloads="$workload"

# One process per workload; keeps `<workload> <result line>` rows in $1.
run_set() {
    local rows="$1" set_seed="$2" w
    for w in $workloads; do
        "$bin" --workload "$w" --seed "$set_seed" --seconds "$seconds" --trace 0 | tee benchmark/out/last.txt
        echo "$w $(tail -n 1 benchmark/out/last.txt)" >> "$rows"
    done
}

case "$mode" in
    run)
        for w in $workloads; do
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
        done ;;
    selfcheck)
        mkdir -p benchmark/out
        rm -f benchmark/out/set1.rows benchmark/out/set2.rows
        run_set benchmark/out/set1.rows "$seed"
        run_set benchmark/out/set2.rows "$seed"
        "$bin" --compare benchmark/out/set1.rows benchmark/out/set2.rows --manifest BENCHMARK.json ;;
    spread)
        mkdir -p benchmark/out
        rm -f benchmark/out/spread.rows
        for s in $(seq 1 "$count"); do run_set benchmark/out/spread.rows "$s"; done
        "$bin" --spread benchmark/out/spread.rows --manifest BENCHMARK.json ;;
esac
