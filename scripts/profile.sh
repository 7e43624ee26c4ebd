#!/usr/bin/env bash
# Where one workload's time goes, function by function: the repo
# benchmark's binary run once under gprofng's clock profiler.
#
#   scripts/profile.sh <workload> [seconds=30]
#
# Builds benchmark/ as benchmark/run.sh does (`cargo build --release
# --offline`, into $CARGO_TARGET_DIR or benchmark/target), unsets every
# NETPACK_* variable, runs the binary on one workload of BENCHMARK.json
# (seed 1, tracing off) under `gprofng collect app`, and prints the top
# functions by exclusive CPU time, then the call tree.
#
# It attributes time and never claims it: a profile is one run, slowed by
# the profiler, on a host whose speed drifts. scripts/pairs.sh stays the
# protocol a performance claim is measured by.
#
# On the 2-core VM this repository's benchmark numbers come from, clock
# profiling yields ~10 samples per second of run, not the nominal 100: the
# default 30 s gives ~300 samples, enough to rank functions, not to split
# a few percent between them.
#
# Exits 2 if gprofng (GNU binutils 2.39 or later) is not installed.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: scripts/profile.sh <workload> [seconds=30]" >&2
    exit 2
fi
if ! command -v gprofng > /dev/null; then
    echo "profile.sh: gprofng not found; it ships with GNU binutils 2.39 or later" >&2
    exit 2
fi
workload=$1 seconds=${2:-30}

# What the benchmark runs must not read a NETPACK_* variable either.
for var in $(compgen -v | grep '^NETPACK_' || true); do unset "$var"; done

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/netpack-benchmark"

experiment=$(mktemp -d "${TMPDIR:-/tmp}/netpack-profile.XXXXXX")
trap 'rm -rf "$experiment"' EXIT
gprofng collect app -o "$experiment/run.er" \
    "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >&2

echo "== $workload, $seconds s: top functions by exclusive CPU time =="
gprofng display text -limit 40 -functions "$experiment/run.er"
echo
echo "== $workload, $seconds s: call tree =="
gprofng display text -calltree "$experiment/run.er"
