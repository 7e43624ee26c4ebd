#!/usr/bin/env bash
# Tier-1 gate: the tree is green iff this script exits 0.
#
#   ./scripts/check.sh
#
# The steps, one a line, in run order. This is the one list of what the
# gate runs: README, CI and the verify notes point here.
#
#  1. release build of the workspace
#  2. rustfmt: the root package and every crate under crates/ (not vendor/, kept
#     byte-comparable with upstream, nor benchmark/), default settings
#  3. clippy on all targets, warnings denied
#  4. netpack-lint: any finding fails (stale pragmas and NETPACK_* registry drift too)
#  5. rustdoc on the workspace's own crates, warnings denied (a dangling intra-doc link fails)
#  6. workspace tests from a debug build, every debug_assert audit on
#  7. workspace doctests
#  8. the oracle and property tests from a release build: root tests/oracles.rs
#     and crates/bench/tests/smoke.rs, whose pinned values must hold in both
#     builds, the placement and flow-simulator property suites, the job
#     manager crate's tests (stateless books against warm ones) and the
#     water-fill crate's tests
#  9. benchmark package compiles against the library (cargo check of benchmark/,
#     its Cargo.lock restored byte for byte)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo fmt --check (root package and crates/*)"
fmt_packages=(-p netpack)
for manifest in crates/*/Cargo.toml; do
    fmt_packages+=(-p "$(awk -F'"' '/^name = /{print $2; exit}' "$manifest")")
done
cargo fmt --check "${fmt_packages[@]}"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p netpack-lint (any finding, stale pragma or unregistered NETPACK_* var fails)"
cargo run -q -p netpack-lint

echo "==> cargo doc --workspace --no-deps, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --exclude rand

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace --doc -q"
cargo test --workspace --doc -q

echo "==> oracle and property tests from a release build"
# The same production == reference checks step 6 ran with every
# debug_assert! audit on, now on the optimised code, against the same
# pinned values: a debug and a release build may not place, simulate or
# count differently. The placement properties reach paths only a release
# build takes (a plan ruled out by its score ceiling returns early), and
# the solver is held to its literal twin in both builds.
cargo test --release -q -p netpack --test oracles
cargo test --release -q -p netpack-bench --test smoke
cargo test --release -q -p netpack-placement --test properties
cargo test --release -q -p netpack-flowsim --test properties
cargo test --release -q -p netpack-core
cargo test --release -q -p netpack-waterfill

echo "==> cargo check of the benchmark package (benchmark/Cargo.lock restored byte for byte)"
# benchmark/ is a package of its own, so nothing above compiles it; the
# adapter calls `WorkerDp::plans`, the estimator's push / remove / pop and
# `NetPackConfig::threads`. An offline build rewrites its stale Cargo.lock,
# so the file is saved first and put back whatever the check returns.
tmp_dir=$(mktemp -d)
cp benchmark/Cargo.lock "$tmp_dir/benchmark-Cargo.lock"
trap 'cp "$tmp_dir/benchmark-Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmp_dir"' EXIT
if ! cargo check --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark-check; then
    echo "check.sh: the benchmark package no longer compiles against the library" >&2
    exit 1
fi

echo "check.sh: all green"
