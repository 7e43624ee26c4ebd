#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark: the protocol a
# performance claim is measured by (benchmark/README.md, "How to state a
# claim").
#
#   scripts/pairs.sh <parent-rev> <workload|all> [pairs=10] [seed=1]
#   scripts/pairs.sh <parent-rev> <workload|all> trace [seed=1]
#
# Extracts <parent-rev> into a directory of its own under $TMPDIR (with
# `git archive`, so the repository's own metadata is not touched), builds
# both sides' benchmark/ into separate target directories there, and runs
# `benchmark/run.sh --workload W --seed S` on each side, alternating which
# side goes first. The working tree is the change: commit or not, what is
# on disk is what runs. Prints, per end-to-end metric, both medians, the
# parent's quartiles, how many pairs the change won (ties count for
# neither side), and whether the medians differ by more than the parent's
# quartile distance; then whether comm_overhead_ratio — the quality number,
# a function of the seed alone — is bit-equal across every run of both
# sides. Every result line is kept in the files named at the end.
#
# `all` is what a claim needs: the claimed workload and the three that
# must not move. It builds both sides once, runs the four workloads of
# BENCHMARK.json in turn, prints each one's table, and closes with one
# line per (workload, metric) whose medians differ by more than the
# metric's bound in BENCHMARK.json — better or WORSE — or that broke the
# comm_overhead_ratio / correctness checks.
#
# With `trace` in place of the pair count it makes one `--trace 1` run per
# side instead (same two builds) and prints every metric of the two result
# lines side by side — parent, change, change / parent — with a `DIFFERS`
# flag on each count (work done, not time spent) that is not equal: "the
# saving is where the issue says, and the work did not move" in one table.
# One traced run is a reading, not a claim; the pairs are the claim.
#
# This script and `benchmark/run.sh`, which it drives, are the only ones
# in the repository that measure. The figure binaries print single-shot
# wall clocks for their figures, and the older JSON ledger some of them
# appended to (with the script that regenerated it) was deleted in 0.14:
# a timing that is not a median of alternating pairs from here is not a
# claim.
#
# Never run it while another build, test or benchmark is running.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: scripts/pairs.sh <parent-rev> <workload|all> [pairs=10|trace] [seed=1]" >&2
    exit 2
fi
rev=$1 workloads=$2 pairs=${3:-10} seed=${4:-1}
[ "$workloads" != all ] || workloads="service_saturate warehouse_batch dense_batch sim_sweep"
# "<metric> <bound>" per end-to-end metric: only those entries carry one.
bounds=$(awk '/"name":/ { name = $2 } /"bound":/ { print name, $2 }' BENCHMARK.json | tr -d '",' | tr '\n' ' ')

work=$(mktemp -d "${TMPDIR:-/tmp}/netpack-pairs.XXXXXX")
# An offline build of the working tree's benchmark/ rewrites its stale
# Cargo.lock (check.sh step 9 does the same): put it back byte for byte on
# exit, however the script ends.
cp benchmark/Cargo.lock "$work/benchmark-Cargo.lock"
trap 'cp "$work/benchmark-Cargo.lock" benchmark/Cargo.lock
      rm -rf "$work/benchmark-Cargo.lock" "$work/parent" "$work/target-parent" "$work/target-change"' EXIT
mkdir "$work/parent"
git archive "$rev" | tar -x -C "$work/parent"

echo "pairs.sh: building parent $(git rev-parse --short "$rev") and the working tree" >&2
cargo build --release --offline --manifest-path "$work/parent/benchmark/Cargo.toml" \
    --target-dir "$work/target-parent" >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "$work/target-change" >&2

# One run of one side on $workload, with any further run.sh arguments; its
# result line (the last of stdout) joins $3.
run_side() {
    local dir=$1 target=$2 rows=$3
    shift 3
    (cd "$dir" && CARGO_TARGET_DIR="$target" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" "$@" 2> /dev/null) | tail -n 1 >> "$rows"
}

# One traced run per side of $workload, then every metric side by side.
trace_table() {
    local parent_row="$work/parent.$workload.trace" change_row="$work/change.$workload.trace"
    run_side "$work/parent" "$work/target-parent" "$parent_row" --trace 1
    run_side . "$work/target-change" "$change_row" --trace 1
    echo "workload $workload seed $seed: one traced run, parent $(git rev-parse --short "$rev") vs working tree"
    awk '
# name, value and unit of every `"name": {"value": V, "unit": "U"}` of a result line.
function metrics(line, value, unit, order,    n, entry, name) {
    n = 0
    while (match(line, /"[A-Za-z0-9_.]+": [{]"value": [^,]*, "unit": "[^"]*"[}]/)) {
        entry = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        name = substr(entry, 2); sub(/".*/, "", name)
        order[++n] = name
        value[name] = entry; sub(/.*"value": /, "", value[name]); sub(/,.*/, "", value[name])
        unit[name] = entry; sub(/.*"unit": "/, "", unit[name]); sub(/".*/, "", unit[name])
    }
    return n
}
FNR == NR { n = metrics($0, parent, unit, order); next }
{ metrics($0, change, unit, ignored) }
END {
    printf "%-44s %18s %18s %8s  %s\n", "metric", "parent", "change", "ratio", "unit"
    for (i = 1; i <= n; i++) {
        name = order[i]; p = parent[name]; c = change[name]
        ratio = (p + 0 != 0 ? sprintf("%7.3fx", c / p) : "      - ")
        flag = (unit[name] == "count" && p != c ? "  DIFFERS" : "")
        printf "%-44s %18.10g %18.10g %8s  %s%s\n", name, p, c, ratio, unit[name], flag
    }
}' "$parent_row" "$change_row"
    echo "result lines: $parent_row $change_row"
}

# The pairs of $workload, then its table; what the closing summary lists
# joins $work/moved.
measure() {
    local parent_rows="$work/parent.$workload.rows" change_rows="$work/change.$workload.rows" i
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run_side "$work/parent" "$work/target-parent" "$parent_rows"
            run_side . "$work/target-change" "$change_rows"
        else
            run_side . "$work/target-change" "$change_rows"
            run_side "$work/parent" "$work/target-parent" "$parent_rows"
        fi
        echo "pairs.sh: $workload pair $i/$pairs done" >&2
    done

    echo "workload $workload seed $seed: $pairs alternating pairs, parent $(git rev-parse --short "$rev") vs working tree"
    awk -v pairs="$pairs" -v workload="$workload" -v bounds="$bounds" -v moved="$work/moved" '
function value(line, name,    at, rest) {
    at = index(line, "\"" name "\": {\"value\": ")
    if (at == 0) return "nan"
    rest = substr(line, at + length(name) + 14)
    sub(/[,}].*/, "", rest)
    return rest
}
function sorted(src, dst, n,    i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i] + 0
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
}
function median(v, n) { return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2 }
# Quartile i of 4, the exclusive method (Python statistics.quantiles).
function quartile(v, n, i,    m, j, delta) {
    if (n < 2) return v[1]
    m = n + 1
    j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    delta = i * m - j * 4
    return (v[j] * (4 - delta) + v[j + 1] * delta) / 4
}
FNR == NR { parent[FNR] = $0; next }
{ change[FNR] = $0 }
END {
    n = split(bounds, words, " ")
    for (k = 1; k < n; k += 2) bound[words[k]] = words[k + 1]
    n = split("jobs_per_s latency_p50_ms cpu_s_per_kjob peak_rss_mb setup_s", names, " ")
    printf "%-16s %14s %14s %8s %14s %14s %6s  %s\n", "metric", "parent median", "change median", "ratio", "parent q1", "parent q3", "wins", "beyond parent spread"
    for (k = 1; k <= n; k++) {
        name = names[k]; higher = (name == "jobs_per_s"); wins = 0
        for (i = 1; i <= pairs; i++) {
            p[i] = value(parent[i], name); c[i] = value(change[i], name)
            if (higher ? c[i] + 0 > p[i] + 0 : c[i] + 0 < p[i] + 0) wins++
        }
        sorted(p, ps, pairs); sorted(c, cs, pairs)
        pm = median(ps, pairs); cm = median(cs, pairs)
        q1 = quartile(ps, pairs, 1); q3 = quartile(ps, pairs, 3)
        gap = cm - pm; if (gap < 0) gap = -gap
        printf "%-16s %14.6g %14.6g %7.3fx %14.6g %14.6g %3d/%-2d  %s\n", name, pm, cm, cm / pm, q1, q3, wins, pairs, (gap > q3 - q1 ? "yes" : "no")
        if (gap > bound[name] * pm)
            printf "%s %s: %.3fx the parent median, %s, beyond the bound %s\n", workload, name, cm / pm, ((cm > pm) == higher ? "better" : "WORSE"), bound[name] >> moved
    }
    quality = value(parent[1], "comm_overhead_ratio"); equal = 1; correct = 1
    for (i = 1; i <= pairs; i++) {
        if (value(parent[i], "comm_overhead_ratio") != quality || value(change[i], "comm_overhead_ratio") != quality) equal = 0
        if (parent[i] !~ /"correct": true/ || change[i] !~ /"correct": true/ || parent[i] !~ /"failed": 0,/ || change[i] !~ /"failed": 0,/) correct = 0
    }
    printf "comm_overhead_ratio %s: %s across all %d runs\n", quality, (equal ? "bit-equal" : "DIFFERS"), 2 * pairs
    printf "correct with failed 0 on every run: %s\n", (correct ? "yes" : "NO")
    if (!equal) printf "%s comm_overhead_ratio: DIFFERS between runs\n", workload >> moved
    if (!correct) printf "%s: a run was not correct with failed 0\n", workload >> moved
}' "$parent_rows" "$change_rows"
    echo "result lines: $parent_rows $change_rows"
}

if [ "$pairs" = trace ]; then
    for workload in $workloads; do trace_table; done
    exit 0
fi

for workload in $workloads; do measure; done

if [ -s "$work/moved" ]; then
    echo "moved beyond a BENCHMARK.json bound, or broke a check:"
    cat "$work/moved"
else
    echo "no (workload, metric) moved beyond its BENCHMARK.json bound; every check held"
fi
