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
//!
//! This crate regenerates figures; it is not the measuring instrument.
//! A binary's one machine-readable output is [`emit_table`] (stdout, plus
//! a CSV under `NETPACK_CSV_DIR`), and the trace-replay figures share one
//! repetition loop, [`replay_with`]. Timing claims are measured by
//! `benchmark/run.sh` (alternating pairs: `scripts/pairs.sh`); the wall
//! clocks `fig10_placement_time`, `fig10_xl`, `table_mip_vs_dp` and
//! `bench_service` print are single shots for the figure, nothing more.

use netpack_flowsim::{SimConfig, SimResult, Simulation};
use netpack_metrics::{PerfCounters, Summary, TextTable};
use netpack_packetsim::{PacketJobSpec, SwitchConfig};
use netpack_placement::{
    batch_comm_time_s, placer_by_name, reference, BatchOutcome, NetPackConfig, NetPackPlacer,
    Placer,
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

/// Print `perf` as a table under `heading` if `NETPACK_PERF` is set.
pub fn print_perf(heading: &str, perf: &PerfCounters) {
    if std::env::var("NETPACK_PERF").is_ok_and(|v| v != "0") {
        println!("{heading}\n{}", perf.to_table());
    }
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

/// The figure roster's display names, in row order: NetPack plus the five
/// comparison placers of §6.1. Each is a [`placer_by_name`] key.
pub fn roster_names() -> Vec<&'static str> {
    vec!["NetPack", "GB", "FB", "LF", "Optimus", "Tetris"]
}

pub use netpack_metrics::parallel_sweep;

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
/// time-dependent — so a release and a debug build's runs can be
/// byte-diffed. Returns the placer's perf counters, for a caller that
/// pins some of them.
///
/// # Panics
///
/// Panics when production and the reference disagree, or a solve hit its
/// round bound.
pub fn placement_smoke(label: &str, cluster: &Cluster, batch: &[Job]) -> PerfCounters {
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
    placer.take_perf()
}

/// Outcome of repeated trace replays for one placer.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPoint {
    /// Average-JCT summary across repetitions.
    pub jct: Summary,
    /// Distribution-efficiency summary across repetitions.
    pub de: Summary,
}

/// A fresh placer for a roster (or `"Comb"`) name — placers are stateful,
/// so every replay builds its own.
fn named_placer(name: &str) -> Box<dyn Placer> {
    placer_by_name(name).unwrap_or_else(|| panic!("unknown placer {name}"))
}

fn replay_one(
    spec: &ClusterSpec,
    kind: TraceKind,
    jobs: usize,
    seed: u64,
    placer: Box<dyn Placer>,
    sim_config: SimConfig,
) -> SimResult {
    let trace = loaded_trace(kind, spec, jobs, seed);
    Simulation::new(Cluster::new(spec.clone()), placer, sim_config).run(&trace)
}

/// Replay one seeded trace for one placer name on one cluster spec — the
/// unit cell the figure sweeps fan out over [`parallel_sweep`].
pub fn replay_cell(
    name: &str,
    spec: &ClusterSpec,
    kind: TraceKind,
    jobs: usize,
    seed: u64,
) -> SimResult {
    replay_one(spec, kind, jobs, seed, named_placer(name), SimConfig::default())
}

/// The repetition loop of every trace-replay figure: replay `repeats()`
/// loaded traces, seeded `seed_base + rep`, each on a fresh cluster with a
/// fresh placer from `make_placer`, and summarise JCT and DE. The
/// ablations pass their `NetPackConfig` / `SimConfig` variant here.
pub fn replay_with(
    spec: &ClusterSpec,
    kind: TraceKind,
    jobs: usize,
    seed_base: u64,
    make_placer: impl Fn() -> Box<dyn Placer>,
    sim_config: SimConfig,
) -> ReplayPoint {
    let mut jcts = Vec::new();
    let mut des = Vec::new();
    for rep in 0..repeats() {
        let result = replay_one(spec, kind, jobs, seed_base + rep as u64, make_placer(), sim_config);
        jcts.push(result.average_jct_s().expect("jobs finished"));
        des.push(result.distribution_efficiency().expect("jobs finished"));
    }
    ReplayPoint {
        jct: Summary::of(&jcts),
        de: Summary::of(&des),
    }
}

/// [`replay_with`] for one roster placer name under the default simulator
/// configuration (seeds 1000, 1001, …).
pub fn replay(name: &str, spec: &ClusterSpec, kind: TraceKind, jobs: usize) -> ReplayPoint {
    replay_with(spec, kind, jobs, 1000, || named_placer(name), SimConfig::default())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_roster_name_builds_the_placer_it_names() {
        for name in roster_names() {
            assert_eq!(named_placer(name).name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown placer")]
    fn unknown_placer_panics() {
        let _ = named_placer("nope");
    }

    #[test]
    fn parallel_sweep_matches_sequential_simulation() {
        // The real use: one simulation per cell must give the same
        // results as running the cells in a plain loop.
        let spec = testbed_spec();
        let cells: Vec<u64> = vec![1, 2, 3];
        let run = |&seed: &u64| {
            replay_cell("GB", &spec, TraceKind::Real, 12, seed)
                .average_jct_s()
                .expect("jobs finished")
        };
        let par = parallel_sweep(&cells, run);
        let seq: Vec<f64> = cells.iter().map(run).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn loaded_trace_respects_cluster_size() {
        let spec = testbed_spec();
        let t = loaded_trace(TraceKind::Real, &spec, 50, 1);
        assert_eq!(t.jobs().len(), 50);
        assert!(t.jobs().iter().all(|j| j.gpus <= spec.total_gpus()));
    }
}
