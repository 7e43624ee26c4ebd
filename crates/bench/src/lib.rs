#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Shared scaffolding for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation (§6) has a binary in
//! `src/bin/` that reprints the corresponding rows/series:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_ina_modes` | Fig. 2 — statistical vs synchronous INA throughput |
//! | `fig5_aggregation_model` | Fig. 5b — FS/FC flow counts vs sending rate |
//! | `fig6_sim_validation` | Fig. 6 — packet-sim vs flow-sim JCT correlation |
//! | `fig7_jct` | Fig. 7 — normalized average JCT, 6 placers × 3 traces |
//! | `fig8_de` | Fig. 8 — distribution efficiency, same matrix |
//! | `fig9_scale` | Fig. 9 — JCT vs cluster scale |
//! | `fig10_placement_time` | Fig. 10 — placement algorithm execution time |
//! | `fig11_switch_memory` | Fig. 11 — JCT vs available switch memory |
//! | `fig12_oversubscription` | Fig. 12 — JCT vs oversubscription ratio |
//! | `fig13_comb` | Fig. 13 — NetPack vs the naive combination |
//! | `fig14_aggregation_ratio` | Fig. 14 — aggregation ratio vs PAT ratio |
//! | `fig15_waterfill_accuracy` | Fig. 15 — estimated vs measured bandwidth |
//! | `table_mip_vs_dp` | §5.1 — exact-search runtime blow-up and DP gap |
//! | `ablation_hotspot` | §5.2 note — Eq. 1 sign variants |
//! | `ablation_ina_enable` | §5.2 step 4 — INA policies |
//! | `ablation_dp_flows` | §5.2 — two-dimensional DP weight |
//! | `ablation_multi_ps` | §4.1 extension — gradient sharding over k PSes |
//! | `ext_fig2_cluster` | extension — memory modes at cluster scale |
//! | `ext_fig5_packet` | extension — Fig. 5 at packet granularity |
//! | `ext_tail_and_utilization` | extension — p95 JCT and GPU occupancy |
//!
//! Scale every binary down or up with `NETPACK_REPEATS` (default 5) and
//! `NETPACK_QUICK=1` (smaller clusters/traces for smoke runs).

use netpack_flowsim::{SimConfig, Simulation};
use netpack_metrics::{Summary, TextTable};
use netpack_packetsim::{PacketJobSpec, SwitchConfig};
use netpack_placement::{
    batch_comm_time_s, reference, BatchOutcome, Comb, FlowBalance, GpuBalance,
    LeastFragmentation, NetPackConfig, NetPackPlacer, OptimusLike, Placer, TetrisLike,
};
use netpack_topology::{Cluster, ClusterSpec, JobId};
use netpack_workload::{Job, TraceKind, TraceSpec};

/// Number of repetitions (distinct trace seeds) per data point.
pub fn repeats() -> usize {
    std::env::var("NETPACK_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

/// Whether to shrink experiments for a quick smoke run.
pub fn quick() -> bool {
    std::env::var("NETPACK_QUICK").is_ok_and(|v| v != "0")
}

/// Whether to run the single tiny cell `scripts/check.sh` gates on; a
/// binary whose layer has a reference also runs it on that cell and
/// asserts it equals production.
pub fn smoke() -> bool {
    std::env::var("NETPACK_SMOKE").is_ok_and(|v| v != "0")
}

/// The paper's 5-server testbed cluster spec (heavily loaded in our runs
/// so placement quality matters, as the production replay does).
pub fn testbed_spec() -> ClusterSpec {
    ClusterSpec {
        pat_gbps: 200.0,
        ..ClusterSpec::paper_testbed()
    }
}

/// The paper's default simulated cluster (16 racks × 16 servers × 4 GPUs),
/// optionally shrunk by `NETPACK_QUICK`.
pub fn simulator_spec() -> ClusterSpec {
    if quick() {
        ClusterSpec {
            racks: 4,
            servers_per_rack: 4,
            ..ClusterSpec::paper_default()
        }
    } else {
        ClusterSpec::paper_default()
    }
}

/// A loaded trace for a given cluster: arrival pressure and durations
/// tuned so many jobs contend for GPUs and the network simultaneously
/// (the regime the paper's production replay exercises). The inter-arrival
/// time is derived from the cluster's service capacity so that offered
/// load sits slightly above saturation regardless of cluster size.
pub fn loaded_trace(
    kind: TraceKind,
    spec: &ClusterSpec,
    jobs: usize,
    seed: u64,
) -> netpack_workload::Trace {
    let max = (spec.total_gpus() / 2).clamp(2, 64);
    let duration_scale = 0.3;
    // Log-normal mean duration: median 480 s, sigma 1.1 (see TraceSpec).
    let mean_duration_s = 480.0 * (1.1f64 * 1.1 / 2.0).exp() * duration_scale;
    let mean_gpus = match kind {
        TraceKind::Real => 4.5f64.min(max as f64 / 2.0),
        TraceKind::Poisson => 4.0f64.min(max as f64),
        TraceKind::Normal => 8.0f64.min(max as f64),
    };
    let utilization_target = 1.15; // slightly over-saturated
    let interarrival =
        mean_gpus * mean_duration_s / (spec.total_gpus() as f64 * utilization_target);
    TraceSpec::new(kind, jobs)
        .seed(seed)
        .mean_interarrival_s(interarrival)
        .duration_scale(duration_scale)
        .max_gpus(max)
        .generate()
}

/// Jobs per trace for the standard experiments. Small (testbed-scale)
/// clusters get a floor of 120 jobs: their heavy-tailed queueing makes
/// short traces noisy, and averaging over more completions is how the
/// paper's long production replay smooths the same effect.
pub fn standard_jobs(spec: &ClusterSpec) -> usize {
    let base = (spec.total_gpus() / 2).clamp(120, 400);
    if quick() {
        base / 4
    } else {
        base
    }
}

/// The figure roster: NetPack plus the five comparison placers of §6.1.
pub fn roster() -> Vec<Box<dyn Placer>> {
    vec![
        Box::new(NetPackPlacer::default()),
        Box::new(GpuBalance),
        Box::new(FlowBalance),
        Box::new(LeastFragmentation),
        Box::new(OptimusLike),
        Box::new(TetrisLike),
    ]
}

/// The roster's display names, in order.
pub fn roster_names() -> Vec<&'static str> {
    vec!["NetPack", "GB", "FB", "LF", "Optimus", "Tetris"]
}

/// Construct one roster placer by name (placers are stateful, so each
/// repetition builds a fresh one).
pub fn placer_by_name(name: &str) -> Box<dyn Placer> {
    match name {
        "NetPack" => Box::new(NetPackPlacer::default()),
        "GB" => Box::new(GpuBalance),
        "FB" => Box::new(FlowBalance),
        "LF" => Box::new(LeastFragmentation),
        "Optimus" => Box::new(OptimusLike),
        "Tetris" => Box::new(TetrisLike),
        "Comb" => Box::new(Comb),
        other => panic!("unknown placer {other}"),
    }
}

pub use netpack_metrics::parallel_sweep;

/// Worker-thread count recorded in the ledger rows: the *effective*
/// count the run used — `NETPACK_THREADS` clamped to the machine's cores
/// ([`netpack_metrics::sweep_threads`]) — so no row claims more workers
/// than ran.
pub fn bench_threads() -> u64 {
    netpack_metrics::sweep_threads() as u64
}

/// Stable fingerprint of a batch outcome: every placement's workers, PSes
/// and INA flag, and the deferred ids.
fn outcome_digest(outcome: &BatchOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "placed={} deferred={}\n",
        outcome.placed.len(),
        outcome.deferred.len()
    ));
    for (job, p) in &outcome.placed {
        let workers: Vec<String> = p
            .workers()
            .iter()
            .map(|&(s, w)| format!("{}x{w}", s.0))
            .collect();
        let pses: Vec<String> = p.pses().iter().map(|s| s.0.to_string()).collect();
        out.push_str(&format!(
            "job {}: workers=[{}] ps=[{}] ina={}\n",
            job.id.0,
            workers.join(","),
            pses.join(","),
            p.ina_enabled()
        ));
    }
    let deferred: Vec<String> = outcome.deferred.iter().map(|j| j.id.0.to_string()).collect();
    out.push_str(&format!("deferred=[{}]\n", deferred.join(",")));
    out
}

/// The placement smoke of `scripts/check.sh`: place `batch` on `cluster`
/// with the production placer, assert that the outcome equals the literal
/// algorithm's ([`reference::place_batch`]) and that every water-fill
/// solve converged, and print only the outcome digest — nothing
/// time-dependent — so runs at different worker counts can be
/// byte-diffed.
///
/// # Panics
///
/// Panics when production and the reference disagree, or a solve hit its
/// round bound.
pub fn placement_smoke(label: &str, cluster: &Cluster, batch: &[Job]) {
    let mut placer = NetPackPlacer::default();
    let outcome = placer.place_batch(cluster, &[], batch);
    let oracle = reference::place_batch(&NetPackConfig::default(), cluster, &[], batch);
    assert_eq!(
        outcome_digest(&outcome),
        outcome_digest(&oracle),
        "production diverged from the literal algorithm"
    );
    assert_eq!(
        placer.perf().counter("waterfill_unconverged"),
        0,
        "a water-fill solve hit its round bound"
    );
    let objective = batch_comm_time_s(cluster, &[], &outcome.placed);
    println!(
        "{label} smoke digest (servers={}, jobs={})",
        cluster.num_servers(),
        batch.len()
    );
    print!("{}", outcome_digest(&outcome));
    println!("objective_bits={:#018x}", objective.to_bits());
}

/// Outcome of repeated trace replays for one placer.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPoint {
    /// Average-JCT summary across repetitions.
    pub jct: Summary,
    /// Distribution-efficiency summary across repetitions.
    pub de: Summary,
}

/// Replay one seeded trace for one placer name on one cluster spec — the
/// unit cell the figure sweeps fan out over [`parallel_sweep`].
pub fn replay_cell(
    name: &str,
    spec: &ClusterSpec,
    kind: TraceKind,
    jobs: usize,
    seed: u64,
) -> netpack_flowsim::SimResult {
    let trace = loaded_trace(kind, spec, jobs, seed);
    Simulation::new(
        Cluster::new(spec.clone()),
        placer_by_name(name),
        SimConfig::default(),
    )
    .run(&trace)
}

/// Replay `repeats()` seeded traces for one placer name on one cluster
/// spec, returning JCT/DE summaries.
pub fn replay(name: &str, spec: &ClusterSpec, kind: TraceKind, jobs: usize) -> ReplayPoint {
    let mut jcts = Vec::new();
    let mut des = Vec::new();
    for rep in 0..repeats() {
        let result = replay_cell(name, spec, kind, jobs, 1000 + rep as u64);
        jcts.push(result.average_jct_s().expect("jobs finished"));
        des.push(result.distribution_efficiency().expect("jobs finished"));
    }
    ReplayPoint {
        jct: Summary::of(&jcts),
        de: Summary::of(&des),
    }
}

/// The packet microbenchmarks' standard continuously-streaming job: 0.5 Gb
/// gradients, no compute phase, unbounded iterations, immediate start
/// (the Fig. 2/14 workload).
pub fn packet_stream_job(id: u64, fan_in: usize, target_gbps: Option<f64>) -> PacketJobSpec {
    PacketJobSpec {
        id: JobId(id),
        fan_in,
        gradient_gbits: 0.5,
        compute_time_s: 0.0,
        iterations: 0,
        start_s: 0.0,
        target_gbps,
    }
}

/// The Fig. 14 switch configuration: an aggregator pool sized to
/// `pat_ratio` times the window of a job pacing at `rate_gbps` — so the
/// pool's PAT is that fraction of one job's offered rate.
pub fn pat_ratio_config(pat_ratio: f64, rate_gbps: f64) -> SwitchConfig {
    let base = SwitchConfig::default();
    let window = base.rate_to_pkts(rate_gbps);
    SwitchConfig {
        pool_slots: (pat_ratio * window as f64).round() as usize,
        ..base
    }
}

/// Print a table to stdout and, when `NETPACK_CSV_DIR` is set, also write
/// it to `$NETPACK_CSV_DIR/<name>.csv` — the shared emission path of the
/// figure binaries.
pub fn emit_table(name: &str, table: &TextTable) {
    println!("{table}");
    if let Ok(dir) = std::env::var("NETPACK_CSV_DIR") {
        if !dir.is_empty() {
            let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
            table
                .write_csv(&path)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        }
    }
}

/// One machine-readable benchmark measurement — a line of
/// `results/BENCH_placement.json`.
///
/// The schema (documented in DESIGN.md §3.10) is JSON Lines: one object
/// per line with exactly the keys `bench`, `instance`, `mode` (strings),
/// `wall_s` (finite non-negative number), `threads` (positive integer)
/// and `evals`, `nodes`, `pruned` (non-negative integers; 0 when a
/// counter does not apply to the bench).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Source binary, e.g. `"table_mip_vs_dp"`.
    pub bench: &'static str,
    /// Instance label, e.g. `"6x2/3+3+3"` or `"servers=400/jobs=100"`.
    pub instance: String,
    /// Algorithm variant, e.g. `"bnb"`, `"scratch"` (the exhaustive
    /// reference), `"dp"`, `"flat"`.
    pub mode: String,
    /// Wall-clock seconds for the measured call.
    pub wall_s: f64,
    /// Configured worker-thread count for the measured call (see
    /// [`bench_threads`]; 1 for benches with no parallel region).
    pub threads: u64,
    /// Complete assignments evaluated (exact placers) or plans considered
    /// (the DP placer).
    pub evals: u64,
    /// Search-tree nodes visited (branch-and-bound only; else 0).
    pub nodes: u64,
    /// Subtrees cut by the admissible bound (branch-and-bound only; else 0).
    pub pruned: u64,
}

impl BenchRow {
    /// Serialize as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let wall = if self.wall_s.is_finite() && self.wall_s >= 0.0 {
            self.wall_s
        } else {
            0.0
        };
        format!(
            "{{\"bench\":{},\"instance\":{},\"mode\":{},\"wall_s\":{},\"threads\":{},\"evals\":{},\"nodes\":{},\"pruned\":{}}}",
            json_string(self.bench),
            json_string(&self.instance),
            json_string(&self.mode),
            wall,
            self.threads.max(1),
            self.evals,
            self.nodes,
            self.pruned,
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Append `row` to the file named by `NETPACK_BENCH_JSON` (one JSON object
/// per line). A no-op when the variable is unset or empty, so the figure
/// binaries stay silent outside `scripts/bench.sh` runs.
pub fn emit_bench_row(row: &BenchRow) {
    if let Ok(path) = std::env::var("NETPACK_BENCH_JSON") {
        if !path.is_empty() {
            use std::io::Write;
            let mut line = row.to_json();
            line.push('\n');
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("opening {path}: {e}"));
            file.write_all(line.as_bytes())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        }
    }
}

/// One machine-readable service-throughput measurement — a line of
/// `results/BENCH_service.json`.
///
/// The schema (documented in DESIGN.md §3.12) is JSON Lines like
/// [`BenchRow`]'s, with service-shaped columns: the sustained placement
/// throughput of one `bench_service` run plus the submit-to-placement
/// latency percentiles and the backpressure counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRow {
    /// Source binary, e.g. `"bench_service"`.
    pub bench: &'static str,
    /// Instance label, e.g. `"fig10/jobs=1000000"`.
    pub instance: String,
    /// Driver variant: `"threaded"` or `"deterministic"`.
    pub mode: String,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Configured placer worker-thread count for the run (see
    /// [`bench_threads`]).
    pub threads: u64,
    /// Jobs placed.
    pub placed: u64,
    /// Submissions rejected by queue backpressure.
    pub rejected: u64,
    /// Defer events (jobs returning to the queue after a full pass).
    pub deferrals: u64,
    /// Sustained placements per second (`placed / wall_s`).
    pub throughput_per_s: f64,
    /// Median submit-to-placement latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
}

impl ServiceRow {
    /// Serialize as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let clamp = |v: f64| if v.is_finite() && v >= 0.0 { v } else { 0.0 };
        format!(
            "{{\"bench\":{},\"instance\":{},\"mode\":{},\"wall_s\":{},\"threads\":{},\"placed\":{},\"rejected\":{},\"deferrals\":{},\"throughput_per_s\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{}}}",
            json_string(self.bench),
            json_string(&self.instance),
            json_string(&self.mode),
            clamp(self.wall_s),
            self.threads.max(1),
            self.placed,
            self.rejected,
            self.deferrals,
            clamp(self.throughput_per_s),
            self.p50_us,
            self.p99_us,
            self.p999_us,
        )
    }
}

/// Append `row` to the file named by `NETPACK_BENCH_JSON` (one JSON object
/// per line), like [`emit_bench_row`] but for the service schema. A no-op
/// when the variable is unset or empty.
pub fn emit_service_row(row: &ServiceRow) {
    if let Ok(path) = std::env::var("NETPACK_BENCH_JSON") {
        if !path.is_empty() {
            use std::io::Write;
            let mut line = row.to_json();
            line.push('\n');
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("opening {path}: {e}"));
            file.write_all(line.as_bytes())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        }
    }
}

/// Validate a `BENCH_service.json` JSON-Lines document against the
/// [`ServiceRow`] schema; returns the row count. Picked by the
/// `bench_json_check` binary for paths whose file name contains
/// `service`.
pub fn validate_service_jsonl(text: &str) -> Result<usize, String> {
    let mut rows = 0;
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        validate_service_line(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        rows += 1;
    }
    if rows == 0 {
        return Err("no rows".to_string());
    }
    Ok(rows)
}

fn validate_service_line(line: &str) -> Result<(), String> {
    let fields = parse_flat_json_object(line)?;
    const KEYS: [&str; 12] = [
        "bench",
        "instance",
        "mode",
        "wall_s",
        "threads",
        "placed",
        "rejected",
        "deferrals",
        "throughput_per_s",
        "p50_us",
        "p99_us",
        "p999_us",
    ];
    for key in KEYS {
        if !fields.iter().any(|(k, _)| k == key) {
            return Err(format!("missing key {key:?}"));
        }
    }
    let mut quantiles = [0.0f64; 3];
    for (key, value) in &fields {
        match (key.as_str(), value) {
            ("bench" | "instance" | "mode", JsonValue::Str(s)) => {
                if s.is_empty() {
                    return Err(format!("{key:?} must be a non-empty string"));
                }
            }
            ("wall_s" | "throughput_per_s", JsonValue::Num(v)) => {
                if !v.is_finite() || *v < 0.0 {
                    return Err(format!("{key:?} must be finite and >= 0, got {v}"));
                }
            }
            ("threads", JsonValue::Num(v)) => {
                if !v.is_finite() || *v < 1.0 || v.fract() != 0.0 {
                    return Err(format!("threads must be a positive integer, got {v}"));
                }
            }
            (
                "placed" | "rejected" | "deferrals" | "p50_us" | "p99_us" | "p999_us",
                JsonValue::Num(v),
            ) => {
                if !v.is_finite() || *v < 0.0 || v.fract() != 0.0 {
                    return Err(format!("{key:?} must be a non-negative integer, got {v}"));
                }
                match key.as_str() {
                    "p50_us" => quantiles[0] = *v,
                    "p99_us" => quantiles[1] = *v,
                    "p999_us" => quantiles[2] = *v,
                    _ => {}
                }
            }
            (other, _) if !KEYS.contains(&other) => {
                return Err(format!("unknown key {other:?}"));
            }
            (other, _) => return Err(format!("wrong type for key {other:?}")),
        }
    }
    if !(quantiles[0] <= quantiles[1] && quantiles[1] <= quantiles[2]) {
        return Err(format!(
            "latency percentiles must be non-decreasing, got p50={} p99={} p999={}",
            quantiles[0], quantiles[1], quantiles[2]
        ));
    }
    Ok(())
}

/// Validate a `BENCH_*.json` JSON-Lines document against the schema in
/// [`BenchRow`]; returns the row count. Used by the `bench_json_check`
/// binary at the end of `scripts/bench.sh`.
pub fn validate_bench_jsonl(text: &str) -> Result<usize, String> {
    let mut rows = 0;
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        validate_bench_line(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        rows += 1;
    }
    if rows == 0 {
        return Err("no rows".to_string());
    }
    Ok(rows)
}

fn validate_bench_line(line: &str) -> Result<(), String> {
    let fields = parse_flat_json_object(line)?;
    const KEYS: [&str; 8] = [
        "bench", "instance", "mode", "wall_s", "threads", "evals", "nodes", "pruned",
    ];
    for key in KEYS {
        if !fields.iter().any(|(k, _)| k == key) {
            return Err(format!("missing key {key:?}"));
        }
    }
    for (key, value) in &fields {
        match (key.as_str(), value) {
            ("bench" | "instance" | "mode", JsonValue::Str(s)) => {
                if s.is_empty() {
                    return Err(format!("{key:?} must be a non-empty string"));
                }
            }
            ("wall_s", JsonValue::Num(v)) => {
                if !v.is_finite() || *v < 0.0 {
                    return Err(format!("wall_s must be finite and >= 0, got {v}"));
                }
            }
            ("threads", JsonValue::Num(v)) => {
                if !v.is_finite() || *v < 1.0 || v.fract() != 0.0 {
                    return Err(format!("threads must be a positive integer, got {v}"));
                }
            }
            ("evals" | "nodes" | "pruned", JsonValue::Num(v)) => {
                if !v.is_finite() || *v < 0.0 || v.fract() != 0.0 {
                    return Err(format!("{key:?} must be a non-negative integer, got {v}"));
                }
            }
            (other, _) if !KEYS.contains(&other) => {
                return Err(format!("unknown key {other:?}"));
            }
            (other, _) => return Err(format!("wrong type for key {other:?}")),
        }
    }
    Ok(())
}

enum JsonValue {
    Str(String),
    Num(f64),
}

/// Minimal parser for one flat JSON object of string/number values — the
/// only shape the BENCH schema permits, so no external JSON crate needed.
fn parse_flat_json_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = line.chars().peekable();
    let mut fields = Vec::new();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    };
    let parse_string = |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<String, String> {
        if chars.next() != Some('"') {
            return Err("expected '\"'".to_string());
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                Some('"') => return Ok(out),
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    };
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".to_string());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected key, got {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        let value = if chars.peek() == Some(&'"') {
            JsonValue::Str(parse_string(&mut chars)?)
        } else {
            let mut num = String::new();
            while chars
                .peek()
                .is_some_and(|c| c.is_ascii_digit() || "+-.eE".contains(*c))
            {
                num.push(chars.next().unwrap_or_default());
            }
            JsonValue::Num(
                num.parse::<f64>()
                    .map_err(|_| format!("bad number {num:?} for key {key:?}"))?,
            )
        };
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after object".to_string());
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_names_match_roster() {
        let names = roster_names();
        let roster = roster();
        assert_eq!(names.len(), roster.len());
        for (n, p) in names.iter().zip(&roster) {
            assert_eq!(*n, p.name());
        }
    }

    #[test]
    fn placer_by_name_round_trips() {
        for name in roster_names() {
            assert_eq!(placer_by_name(name).name(), name);
        }
        assert_eq!(placer_by_name("Comb").name(), "Comb");
    }

    #[test]
    #[should_panic(expected = "unknown placer")]
    fn unknown_placer_panics() {
        let _ = placer_by_name("nope");
    }

    #[test]
    fn parallel_sweep_matches_sequential_simulation() {
        // The real use: one simulation per cell must give the same
        // results as running the cells in a plain loop.
        let spec = testbed_spec();
        let cells: Vec<u64> = vec![1, 2, 3];
        let run = |&seed: &u64| {
            let trace = loaded_trace(TraceKind::Real, &spec, 12, seed);
            Simulation::new(
                Cluster::new(spec.clone()),
                placer_by_name("GB"),
                SimConfig::default(),
            )
            .run(&trace)
            .average_jct_s()
            .expect("jobs finished")
        };
        let par = parallel_sweep(&cells, run);
        let seq: Vec<f64> = cells.iter().map(run).collect();
        assert_eq!(par, seq);
    }

    fn sample_row() -> BenchRow {
        BenchRow {
            bench: "table_mip_vs_dp",
            instance: "6x2/3+3+3".to_string(),
            mode: "bnb".to_string(),
            wall_s: 0.125,
            threads: 1,
            evals: 42,
            nodes: 99,
            pruned: 7,
        }
    }

    #[test]
    fn bench_row_json_round_trips_through_the_validator() {
        let json = sample_row().to_json();
        assert!(json.contains("\"bench\":\"table_mip_vs_dp\""));
        assert_eq!(validate_bench_jsonl(&json), Ok(1));
        // Multiple lines count as multiple rows; blanks are skipped.
        let doc = format!("{json}\n\n{json}\n");
        assert_eq!(validate_bench_jsonl(&doc), Ok(2));
    }

    #[test]
    fn fig10_xl_row_shape_passes_the_validator() {
        // The exact row shape the fig10_xl binary emits (DESIGN.md §3.11):
        // evals = plans considered, nodes = DP candidates offered,
        // pruned = offered - kept; threads = workers that actually ran.
        let row = BenchRow {
            bench: "fig10_xl",
            instance: "servers=50176/jobs=100".to_string(),
            mode: "flat".to_string(),
            wall_s: 0.023,
            threads: bench_threads(),
            evals: 1234,
            nodes: 1_138,
            pruned: 0,
        };
        assert_eq!(validate_bench_jsonl(&row.to_json()), Ok(1));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        assert!((1..=cores).contains(&row.threads), "threads column exceeds the cores");
    }

    #[test]
    fn bench_row_json_escapes_strings() {
        let row = BenchRow {
            instance: "weird \"quote\" \\ tab\t".to_string(),
            ..sample_row()
        };
        assert_eq!(validate_bench_jsonl(&row.to_json()), Ok(1));
    }

    #[test]
    fn validator_rejects_schema_violations() {
        // Missing key.
        let missing = r#"{"bench":"b","instance":"i","mode":"m","wall_s":1,"threads":1,"evals":2,"nodes":3}"#;
        assert!(validate_bench_jsonl(missing).is_err());
        // Unknown key.
        let unknown = r#"{"bench":"b","instance":"i","mode":"m","wall_s":1,"threads":1,"evals":2,"nodes":3,"pruned":0,"extra":1}"#;
        assert!(validate_bench_jsonl(unknown).is_err());
        // Wrong type.
        let wrong = r#"{"bench":"b","instance":"i","mode":"m","wall_s":"fast","threads":1,"evals":2,"nodes":3,"pruned":0}"#;
        assert!(validate_bench_jsonl(wrong).is_err());
        // Non-integer counter.
        let fractional = r#"{"bench":"b","instance":"i","mode":"m","wall_s":1,"threads":1,"evals":2.5,"nodes":3,"pruned":0}"#;
        assert!(validate_bench_jsonl(fractional).is_err());
        // Zero threads (the schema demands a positive worker count).
        let zero_threads = r#"{"bench":"b","instance":"i","mode":"m","wall_s":1,"threads":0,"evals":2,"nodes":3,"pruned":0}"#;
        assert!(validate_bench_jsonl(zero_threads)
            .is_err_and(|e| e.contains("positive integer")));
        // Negative wall clock, malformed JSON, empty document.
        let negative = r#"{"bench":"b","instance":"i","mode":"m","wall_s":-1,"threads":1,"evals":2,"nodes":3,"pruned":0}"#;
        assert!(validate_bench_jsonl(negative).is_err());
        assert!(validate_bench_jsonl("not json").is_err());
        assert!(validate_bench_jsonl("").is_err());
    }

    fn sample_service_row() -> ServiceRow {
        ServiceRow {
            bench: "bench_service",
            instance: "fig10/jobs=1000000".to_string(),
            mode: "threaded".to_string(),
            wall_s: 8.25,
            threads: 4,
            placed: 999_000,
            rejected: 120,
            deferrals: 4_500,
            throughput_per_s: 121_090.9,
            p50_us: 180,
            p99_us: 2_400,
            p999_us: 9_100,
        }
    }

    #[test]
    fn service_row_json_round_trips_through_the_validator() {
        let json = sample_service_row().to_json();
        assert!(json.contains("\"throughput_per_s\":121090.9"));
        assert_eq!(validate_service_jsonl(&json), Ok(1));
        let doc = format!("{json}\n\n{json}\n");
        assert_eq!(validate_service_jsonl(&doc), Ok(2));
    }

    #[test]
    fn service_validator_rejects_schema_violations() {
        // A BenchRow is not a ServiceRow.
        assert!(validate_service_jsonl(&sample_row().to_json()).is_err());
        // Missing percentile.
        let missing = sample_service_row().to_json().replace(",\"p999_us\":9100", "");
        assert!(validate_service_jsonl(&missing).is_err());
        // Zero threads.
        let zero_threads = sample_service_row().to_json().replace("\"threads\":4", "\"threads\":0");
        assert!(validate_service_jsonl(&zero_threads)
            .is_err_and(|e| e.contains("positive integer")));
        // Non-monotone percentiles.
        let inverted = ServiceRow {
            p99_us: 10_000,
            ..sample_service_row()
        };
        assert!(validate_service_jsonl(&inverted.to_json())
            .is_err_and(|e| e.contains("non-decreasing")));
        // Fractional counter and empty document.
        let fractional = sample_service_row().to_json().replace("\"placed\":999000", "\"placed\":99.5");
        assert!(validate_service_jsonl(&fractional).is_err());
        assert!(validate_service_jsonl("").is_err());
    }

    #[test]
    fn loaded_trace_respects_cluster_size() {
        let spec = testbed_spec();
        let t = loaded_trace(TraceKind::Real, &spec, 50, 1);
        assert_eq!(t.jobs().len(), 50);
        assert!(t.jobs().iter().all(|j| j.gpus <= spec.total_gpus()));
    }
}
