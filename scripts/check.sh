#!/usr/bin/env bash
# Tier-1 gate: the tree is green iff this script exits 0.
#
#   ./scripts/check.sh
#
# The steps, one a line, in run order. This is the one list of what the
# gate runs: README, CI and the verify notes point here.
#
#  1. release build of the workspace
#  2. clippy on all targets, warnings denied
#  3. netpack-lint: any finding fails (stale pragmas and NETPACK_* registry drift too)
#  4. rustdoc on the workspace's own crates, warnings denied (a dangling intra-doc link fails)
#  5. exact smoke: table_mip_vs_dp, branch-and-bound == exhaustive reference in-binary
#  6. workspace tests
#  7. workspace doctests
#  8. fig9 smoke: one 256-server x 400-job cell, every placer's run == run_reference
#  9. fig10_xl smoke: production == the literal Algorithm 2 in-binary, digest and warm pushes (> 0) printed
# 10. fig10 dense smoke: the same on 16 racks x 64 servers, 200 jobs; pins its PS counts, prints
#     index renames (> 0), then class splits (> 0) from the same batch on 400 Gbps pools, which run dry
# 11. service smoke: two 10K-job bench_service replays, stdout and event log byte-identical
# 12. debug smokes: service (2 000 jobs), fig10_xl, fig10 dense, fig9 and exact smokes
#     from a debug build, its assertions on (the index run finders checked on every
#     rebuild among them); every digest must equal the release one
# 13. fig14 smoke: every cell == PacketSim::run_reference in-binary
# 14. benchmark package compiles against the library (cargo check of benchmark/,
#     its Cargo.lock restored byte for byte)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p netpack-lint (any finding, stale pragma or unregistered NETPACK_* var fails)"
cargo run -q -p netpack-lint

echo "==> cargo doc --workspace --no-deps, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --exclude rand

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

echo "==> exact smoke: branch-and-bound == exhaustive reference (in-binary)"
exact_release=$(NETPACK_SMOKE=1 ./target/release/table_mip_vs_dp)
printf '%s\n' "$exact_release"

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace --doc -q"
cargo test --workspace --doc -q

echo "==> fig9 smoke: run == run_reference on every replay (in-binary)"
fig9_release=$(NETPACK_SMOKE=1 NETPACK_QUICK=1 NETPACK_REPEATS=1 ./target/release/fig9_scale)
printf '%s\n' "$fig9_release"

echo "==> fig10_xl smoke: production == reference (in-binary), pushes absorbed without a solve"
xl_release=$(NETPACK_SMOKE=1 ./target/release/fig10_xl)
printf '%s\n' "$xl_release"

echo "==> fig10 dense smoke: production == reference (in-binary), index classes renamed in place, refinable classes split on drier pools"
# Many servers per rack and many contending jobs: the per-rack PS-class
# representatives and the live-link water-fill rounds are the bill here.
# After the digest come the index classes renamed in place and the class
# split count of the same batch on 400 Gbps pools, which run dry.
dense_release=$(NETPACK_SMOKE=1 ./target/release/fig10_placement_time)
printf '%s\n' "$dense_release" | head -n 1
printf '%s\n' "$dense_release" | tail -n 3

echo "==> service smoke: deterministic 10K-job replay must be byte-reproducible"
svc_a=$(NETPACK_SMOKE=1 NETPACK_SERVICE_EVENT_LOG="$tmp_dir/svc_a.log" \
    ./target/release/bench_service 2> /dev/null)
svc_b=$(NETPACK_SMOKE=1 NETPACK_SERVICE_EVENT_LOG="$tmp_dir/svc_b.log" \
    ./target/release/bench_service 2> /dev/null)
if ! diff <(printf '%s\n' "$svc_a") <(printf '%s\n' "$svc_b"); then
    echo "check.sh: service smoke DIVERGED between identical runs (stdout)" >&2
    exit 1
fi
if ! cmp "$tmp_dir/svc_a.log" "$tmp_dir/svc_b.log"; then
    echo "check.sh: service smoke DIVERGED between identical runs (event log)" >&2
    exit 1
fi
printf '%s\n' "$svc_a"
echo "service event log: $(wc -l < "$tmp_dir/svc_a.log") lines, byte-identical across runs"

echo "==> debug smokes: debug builds, server index == full scan and shortcut == literal scan on every job, every rebuilt run checked key by key, session audits on every pass, full re-rate walk after every selective one"
# A debug build keeps `debug_assert!`: every job audits the index as its
# change journals left it against a from-scratch build, and the class-walk
# single-server pick against the literal scan (DESIGN.md §3.11), so a
# missed journal entry fails here, not in a benchmark; and every session
# pass audits the warm steady state, completions settled, against a
# from-scratch estimate, and the GPU ledger against a recount
# (DESIGN.md §3.12). The service replay
# covers the session path under churn, fig10_xl the stateless three-tier
# path (its index audit runs after every absorbed push, whose journal names
# only the pushed job's links, and the diff pins the warm-push count), the
# fig10 dense smoke the contended cell (PS-table bits, the score
# ceiling, the share-minimum skip, the freeze and the refinable classes
# asserted on every use, the index audited after every refresh, renames
# included, ~0.6 s; the diff pins the rename and class split counts), and
# the fig9 smoke the session under the simulator's job manager, where a
# debug build also re-checks every running job's iteration time after
# each selective re-rate (~3 s); a debug build may not move a placement or
# a table byte either. Every index rebuild — the cold build of each batch
# and each `n/8` fallback — also checks each run it files against the key
# of every server in it and of the server after it, so these smokes check
# the run finders on every rebuild, which the index audit cannot: its cold
# build calls the same routine.
NETPACK_SMOKE=1 NETPACK_SERVICE_JOBS=2000 \
    cargo run -q -p netpack-bench --bin bench_service > /dev/null
xl_debug=$(NETPACK_SMOKE=1 cargo run -q -p netpack-bench --bin fig10_xl)
if ! diff <(printf '%s\n' "$xl_release") <(printf '%s\n' "$xl_debug"); then
    echo "check.sh: fig10_xl smoke DIVERGED between the release and debug builds" >&2
    exit 1
fi
dense_debug=$(NETPACK_SMOKE=1 cargo run -q -p netpack-bench --bin fig10_placement_time)
if ! diff <(printf '%s\n' "$dense_release") <(printf '%s\n' "$dense_debug"); then
    echo "check.sh: fig10 dense smoke DIVERGED between the release and debug builds" >&2
    exit 1
fi
fig9_debug=$(NETPACK_SMOKE=1 NETPACK_QUICK=1 NETPACK_REPEATS=1 cargo run -q -p netpack-bench --bin fig9_scale)
if ! diff <(printf '%s\n' "$fig9_release") <(printf '%s\n' "$fig9_debug"); then
    echo "check.sh: fig9 smoke DIVERGED between the release and debug builds" >&2
    exit 1
fi
exact_debug=$(NETPACK_SMOKE=1 cargo run -q -p netpack-bench --bin table_mip_vs_dp)
if ! diff <(printf '%s\n' "$exact_release") <(printf '%s\n' "$exact_debug"); then
    echo "check.sh: exact smoke DIVERGED between the release and debug builds" >&2
    exit 1
fi

echo "==> fig14 smoke: run == run_reference on every cell (in-binary)"
NETPACK_SMOKE=1 ./target/release/fig14_aggregation_ratio

echo "==> cargo check of the benchmark package (benchmark/Cargo.lock restored byte for byte)"
# benchmark/ is a package of its own, so nothing above compiles it; the
# adapter calls `WorkerDp::plans`, the estimator's push / remove / pop and
# `NetPackConfig::threads`. An offline build rewrites its stale Cargo.lock,
# so the file is saved first and put back whatever the check returns.
cp benchmark/Cargo.lock "$tmp_dir/benchmark-Cargo.lock"
trap 'cp "$tmp_dir/benchmark-Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmp_dir"' EXIT
if ! cargo check --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark-check; then
    echo "check.sh: the benchmark package no longer compiles against the library" >&2
    exit 1
fi
cp "$tmp_dir/benchmark-Cargo.lock" benchmark/Cargo.lock
trap 'rm -rf "$tmp_dir"' EXIT

echo "check.sh: all green"
