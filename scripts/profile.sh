#!/usr/bin/env bash
# Where one workload's time goes, function by function: the repo
# benchmark's binary run once under gprofng's clock profiler.
#
#   scripts/profile.sh <workload> [seconds=30]
#
# Builds benchmark/ as benchmark/run.sh does (`cargo build --release
# --offline`, into $CARGO_TARGET_DIR or benchmark/target), unsets every
# NETPACK_* variable, runs the binary on one workload of BENCHMARK.json
# (seed 1, tracing off) under `gprofng collect app`, and prints the CPU
# time the profile recorded against the CPU time the process used (user +
# system, as the shell's `time` reports it), then the top functions by
# exclusive CPU time, then the call tree.
#
# It attributes time and never claims it: a profile is one run, slowed by
# the profiler, on a host whose speed drifts. scripts/pairs.sh stays the
# protocol a performance claim is measured by.
#
# On the 2-core VM this repository's benchmark numbers come from, clock
# profiling yields ~10 samples per second of run, not the nominal 100: the
# default 30 s gives ~300 samples, enough to rank functions, not to split
# a few percent between them. And it records little of the threaded
# service workload: over 10 s runs it recorded 0.25 s of the 11.7 s of CPU the
# `service_saturate` process used (2.1 %), against 1.07 s of 10.8 s
# (9.9 %) on `dense_batch`. Read the recorded share the script prints
# first: a profile that saw a few percent of the run ranks what it saw,
# not the run.
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

experiment=$(mktemp -d "${TMPDIR:-/tmp}/netpack-profile.XXXXXX")
# The offline build rewrites benchmark/'s stale Cargo.lock: put it back
# byte for byte on exit, as pairs.sh and check.sh step 9 do.
cp benchmark/Cargo.lock "$experiment/benchmark-Cargo.lock"
trap 'cp "$experiment/benchmark-Cargo.lock" benchmark/Cargo.lock; rm -rf "$experiment"' EXIT

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/netpack-benchmark"
# The `time` report goes to a file; the run's own output to stderr.
TIMEFORMAT='%U %S'
{ time gprofng collect app -o "$experiment/run.er" \
    "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 1>&3 2>&3; } \
    3>&2 2> "$experiment/process_cpu"
functions=$(gprofng display text -limit 40 -functions "$experiment/run.er")
recorded=$(awk '/<Total>/ { print $1; exit }' <<< "$functions")
read -r user system < "$experiment/process_cpu"
awk -v w="$workload" -v secs="$seconds" -v rec="${recorded:-0}" -v user="$user" -v sys="$system" 'BEGIN {
    cpu = user + sys
    printf "== %s, %s s: the profile recorded %.2f s of CPU; the process used %.2f s (%.2f user + %.2f system): %.1f %% ==\n",
        w, secs, rec, cpu, user, sys, (cpu > 0 ? 100 * rec / cpu : 0)
}'
echo

echo "== $workload, $seconds s: top functions by exclusive CPU time =="
printf '%s\n' "$functions"
echo
echo "== $workload, $seconds s: call tree =="
gprofng display text -calltree "$experiment/run.er"
