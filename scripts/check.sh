#!/usr/bin/env bash
# Tier-1 gate: the tree is green iff this script exits 0.
#
#   ./scripts/check.sh
#
# Runs the release build, clippy with warnings denied, netpack-lint (the
# determinism/concurrency/env-registry static pass; any finding fails,
# there is no baseline file — including a stale suppression
# pragma (P1), a NETPACK_* variable missing from the registry, the README
# table, or its declared gate, or any NETPACK_* read in a library crate
# (M1)), the exact smoke (NETPACK_SMOKE=1 table_mip_vs_dp asserts the
# branch-and-bound == the exhaustive reference in-binary), the full
# workspace test suite, the doctests, the fig9 smoke (one 256-server x
# 400-job loaded-trace cell, every placer's replay of it asserted ==
# Simulation::run_reference in-binary), the
# fig10_xl smoke (the binary asserts production == the literal algorithm
# and prints a placement digest), the fig10 dense smoke (the same contract
# on a 16-rack x 64-server, 200-job cell, where PS scoring dedups per
# rack and water-fill components are large; the binary also pins the
# cell's ps_candidates_scored, ps_rack_servers_skipped and
# ps_plans_ruled_out), the service determinism smoke (two identical
# deterministic 10K-job bench_service runs must be byte-identical,
# stdout + event log), the four
# debug smokes (a 2 000-job deterministic replay, the fig10_xl smoke, the
# fig10 dense smoke and the fig9 smoke, all from a
# *debug* build, so the placement path's debug assertions hold the
# journal-fed server index — as the journals left it — to a full scan
# after every refresh, the index-answered single-server shortcut to
# the literal scan, and — at the top of every session pass, once the
# staged completions are settled — the warm steady state to a
# from-scratch estimate over the running set and the session's GPU
# ledger to a recount from the running placements, on the session path
# under real churn and on the stateless three-tier path, and — in the
# fig9 smoke, where the session sits under the simulator's job manager —
# every running job's iteration time to the settled steady state after
# each selective re-rate; in the fig10 dense smoke (~0.3 s from a debug
# build), where flips and freezes are densest, every table-scored PS
# candidate to the literal score, every class representative of a plan
# ruled out by its score ceiling to that ceiling, every skipped
# share-minimum division to
# the division it skipped, and every water-fill freeze's counts of unfrozen
# jobs and stale entries to a recount;
# the debug fig10_xl and fig10 dense digests and the debug fig9 table must
# equal the release ones), and the fig14 smoke (every cell asserted ==
# PacketSim::run_reference in-binary).
# Keep this list in sync with README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p netpack-lint (any finding, stale pragma or unregistered NETPACK_* var fails)"
cargo run -q -p netpack-lint

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

echo "==> exact smoke: branch-and-bound == exhaustive reference (in-binary)"
NETPACK_SMOKE=1 ./target/release/table_mip_vs_dp

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace --doc -q"
cargo test --workspace --doc -q

echo "==> fig9 smoke: run == run_reference on every replay (in-binary)"
fig9_release=$(NETPACK_SMOKE=1 NETPACK_QUICK=1 NETPACK_REPEATS=1 ./target/release/fig9_scale)
printf '%s\n' "$fig9_release"

echo "==> fig10_xl smoke: production == reference (in-binary)"
xl_release=$(NETPACK_SMOKE=1 ./target/release/fig10_xl)
printf '%s\n' "$xl_release"

echo "==> fig10 dense smoke: production == reference (in-binary)"
# Many servers per rack and many contending jobs: the per-rack PS-class
# representatives and the live-link water-fill rounds are the bill here.
dense_release=$(NETPACK_SMOKE=1 ./target/release/fig10_placement_time)
printf '%s\n' "$dense_release" | head -n 1
printf '%s\n' "$dense_release" | tail -n 1

echo "==> service smoke: deterministic 10K-job replay must be byte-reproducible"
# NETPACK_SERVICE_MODE is pinned explicitly: this smoke is the registered
# enforcement point for that mode gate (see crates/lint/src/registry.rs).
svc_a=$(NETPACK_SMOKE=1 NETPACK_SERVICE_MODE=deterministic \
    NETPACK_SERVICE_EVENT_LOG="$tmp_dir/svc_a.log" \
    ./target/release/bench_service 2> /dev/null)
svc_b=$(NETPACK_SMOKE=1 NETPACK_SERVICE_MODE=deterministic \
    NETPACK_SERVICE_EVENT_LOG="$tmp_dir/svc_b.log" \
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

echo "==> debug smokes: debug builds, server index == full scan and shortcut == literal scan on every job, session audits on every pass, full re-rate walk after every selective one"
# A debug build keeps `debug_assert!`: every job audits the index as its
# change journals left it against a from-scratch build, and the class-walk
# single-server pick against the literal scan (DESIGN.md §3.11), so a
# missed journal entry fails here, not in a benchmark; and every session
# pass audits the warm steady state, completions settled, against a
# from-scratch estimate, and the GPU ledger against a recount
# (DESIGN.md §3.12). The service replay
# covers the session path under churn, fig10_xl the stateless three-tier
# path, the fig10 dense smoke the contended cell (PS-table bits, the score
# ceiling, the share-minimum skip and the freeze asserted on every use,
# ~0.3 s), and
# the fig9 smoke the session under the simulator's job manager, where a
# debug build also re-checks every running job's iteration time after
# each selective re-rate (~3 s); a debug build may not move a placement or
# a table byte either.
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

echo "==> fig14 smoke: run == run_reference on every cell (in-binary)"
NETPACK_SMOKE=1 ./target/release/fig14_aggregation_ratio

echo "check.sh: all green"
