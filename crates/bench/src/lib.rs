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
//! repetition loop, [`sweep`], over one unit cell, [`replay_cell`]. Timing
//! claims are measured by `benchmark/run.sh` (alternating pairs:
//! `scripts/pairs.sh`); the wall clocks `fig10_placement_time`,
//! `fig10_xl`, `table_mip_vs_dp` and `bench_service` print are single
//! shots for the figure, nothing more.

use netpack_flowsim::{SimConfig, SimResult, Simulation};
use netpack_metrics::{PerfCounters, Stopwatch, Summary, TextTable};
use netpack_packetsim::{PacketJobSpec, SwitchConfig};
use netpack_placement::{placer_by_name, NetPackConfig, NetPackPlacer, Placer};
use netpack_service::{Command, ServiceConfig, ServiceCore, ServiceReport};
use netpack_topology::{Cluster, ClusterSpec, JobId};
use netpack_workload::{Trace, TraceKind, TraceSpec};

/// Number of repetitions (distinct trace seeds) per data point:
/// `NETPACK_REPEATS`, default 5.
pub fn repeats() -> usize {
    env_count("NETPACK_REPEATS", 1).unwrap_or(5)
}

/// The count the variable `name` holds, `None` when it is unset or empty.
/// A value that is not a whole number of at least `min` ends the process
/// with a message that names the variable, before the sweep that would
/// have run on a default or panicked on an empty sample.
fn env_count(name: &str, min: usize) -> Option<usize> {
    let value = std::env::var(name).ok();
    parse_count(name, value.as_deref(), min).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// [`env_count`]'s parser, apart from the environment.
fn parse_count(name: &str, value: Option<&str>, min: usize) -> Result<Option<usize>, String> {
    match value.map(str::trim) {
        None | Some("") => Ok(None),
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n >= min => Ok(Some(n)),
            _ => Err(format!(
                "{name}={text}: expected a whole number of at least {min}"
            )),
        },
    }
}

/// Whether the switch `name` is on: unset, empty or `0` is off, `1` is
/// on. Any other value ends the process with a message that names the
/// variable, rather than guessing what `false` or `yes` meant.
fn env_flag(name: &str) -> bool {
    let value = std::env::var(name).ok();
    parse_flag(name, value.as_deref()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// [`env_flag`]'s parser, apart from the environment.
fn parse_flag(name: &str, value: Option<&str>) -> Result<bool, String> {
    match value.map(str::trim) {
        None | Some("" | "0") => Ok(false),
        Some("1") => Ok(true),
        Some(text) => Err(format!("{name}={text}: expected 1 (on) or 0 (off)")),
    }
}

/// Whether to shrink experiments for a quick smoke run: `NETPACK_QUICK=1`.
pub fn quick() -> bool {
    env_flag("NETPACK_QUICK")
}

/// Print `perf` as a table under `heading` if `NETPACK_PERF=1`.
pub fn print_perf(heading: &str, perf: &PerfCounters) {
    if env_flag("NETPACK_PERF") {
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

mod sweep;
pub use sweep::{parallel_sweep, sweep};

/// [`sweep`] over every (point, [`roster_names`] placer) pair: per point,
/// one entry per roster placer in row order, each holding that cell's
/// results in seed order.
pub fn roster_sweep<P, R, F>(points: &[P], reps: usize, seed_base: u64, cell: F) -> Vec<Vec<Vec<R>>>
where
    P: Sync,
    R: Send,
    F: Fn(&P, &'static str, u64) -> R + Sync,
{
    let names = roster_names();
    let cells: Vec<(&P, &'static str)> = points
        .iter()
        .flat_map(|p| names.iter().map(move |&name| (p, name)))
        .collect();
    let results = sweep(&cells, reps, seed_base, |&(p, name), seed| {
        cell(p, name, seed)
    });
    let mut rows = results.into_iter();
    points
        .iter()
        .map(|_| rows.by_ref().take(names.len()).collect())
        .collect()
}

/// A fresh placer for a roster (or `"Comb"`) name — placers are stateful,
/// so every replay builds its own.
///
/// # Panics
///
/// Panics on a name [`placer_by_name`] does not know.
pub fn named_placer(name: &str) -> Box<dyn Placer> {
    placer_by_name(name).unwrap_or_else(|| panic!("unknown placer {name}"))
}

/// One seeded replay — a loaded `kind` trace of `jobs` jobs, seeded
/// `seed`, on a fresh `spec` cluster under `placer` and `sim_config` — the
/// unit cell every trace-replay figure hands to [`sweep`].
pub fn replay_cell(
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

/// Per point, the average-JCT summary of NetPack under the point's
/// [`NetPackConfig`] and [`SimConfig`], replaying its cluster's standard
/// Real trace through [`sweep`] on `repeats()` seeds from `seed_base` —
/// the sweep of the ablations and `ext_fig2_cluster`.
pub fn netpack_jct_sweep(
    points: &[(ClusterSpec, NetPackConfig, SimConfig)],
    seed_base: u64,
) -> Vec<Summary> {
    let jcts = sweep(
        points,
        repeats(),
        seed_base,
        |(spec, config, sim_config), seed| {
            let placer = Box::new(NetPackPlacer::new(config.clone()));
            let jobs = standard_jobs(spec);
            let result = replay_cell(spec, TraceKind::Real, jobs, seed, placer, *sim_config);
            result.average_jct_s().expect("jobs finished")
        },
    );
    jcts.iter().map(|reps| Summary::of(reps)).collect()
}

/// The open-loop service replay's trace: Philly-style
/// (`TraceKind::Real`) jobs at ~85 % offered GPU load on `spec`, so the
/// service churns continuously without its queue diverging.
pub fn service_trace(spec: &ClusterSpec, jobs: usize, seed: u64) -> Trace {
    let duration_scale = 0.3;
    // Log-normal mean duration: median 480 s, sigma 1.1 (see TraceSpec).
    let mean_duration_s = 480.0 * (1.1f64 * 1.1 / 2.0).exp() * duration_scale;
    let mean_gpus = 4.5;
    let utilization_target = 0.85;
    let interarrival =
        mean_gpus * mean_duration_s / (spec.total_gpus() as f64 * utilization_target);
    TraceSpec::new(TraceKind::Real, jobs)
        .seed(seed)
        .open_loop()
        .mean_interarrival_s(interarrival)
        .duration_scale(duration_scale)
        .max_gpus(64)
        .generate()
}

/// Replay `trace` through a [`ServiceCore`] on a fresh `spec` cluster,
/// called synchronously: submissions in arrival order, merged in
/// virtual-time order with each job's completion at `arrival +
/// ideal_time`, one placement pass every `config.max_batch` commands, then
/// passes until the queue is empty or a pass places nothing. The schedule
/// depends on the trace alone, so two replays report the same counters
/// and event log. Returns the report and the replay's wall seconds.
pub fn replay(spec: &ClusterSpec, trace: &Trace, config: ServiceConfig) -> (ServiceReport, f64) {
    let quantum = config.max_batch;
    let mut core = ServiceCore::new(Cluster::new(spec.clone()), config);
    let wall = Stopwatch::start();
    let jobs = trace.jobs();
    let mut completions: Vec<(f64, JobId)> = jobs
        .iter()
        .map(|j| (j.arrival_s + j.ideal_time_s(), j.id))
        .collect();
    completions.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut since_pass = 0usize;
    let mut issue = |cmd| {
        core.apply(cmd);
        since_pass += 1;
        if since_pass == quantum {
            let _ = core.place_pass();
            since_pass = 0;
        }
    };
    let mut next_done = 0usize;
    for job in jobs {
        while next_done < completions.len() && completions[next_done].0 <= job.arrival_s {
            issue(Command::Complete(completions[next_done].1));
            next_done += 1;
        }
        issue(Command::Submit(job.clone()));
    }
    for &(_, id) in &completions[next_done..] {
        issue(Command::Complete(id));
    }
    while core.pending_len() > 0 && core.place_pass() > 0 {}
    let wall_s = wall.elapsed_s();
    (core.finish(), wall_s)
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
        // results as running the cells in a plain loop — for the flat
        // fan-out, and for `sweep`'s per-point, per-seed rows.
        let spec = testbed_spec();
        let run = |name: &str, seed: u64| {
            let placer = named_placer(name);
            replay_cell(
                &spec,
                TraceKind::Real,
                12,
                seed,
                placer,
                SimConfig::default(),
            )
            .average_jct_s()
            .expect("jobs finished")
        };
        let cells: Vec<u64> = vec![1, 2, 3];
        let par = parallel_sweep(&cells, |&seed| run("GB", seed));
        let seq: Vec<f64> = cells.iter().map(|&seed| run("GB", seed)).collect();
        assert_eq!(par, seq);

        let points = ["GB", "FB", "Tetris"];
        let swept = sweep(&points, 2, 7, |&name, seed| (name, seed, run(name, seed)));
        let mut looped = Vec::new();
        for name in points {
            let mut row = Vec::new();
            for seed in 7..9 {
                row.push((name, seed, run(name, seed)));
            }
            looped.push(row);
        }
        assert_eq!(swept, looped);
    }

    #[test]
    fn count_variables_reject_what_they_cannot_use() {
        let parse = |value, min| parse_count("NETPACK_REPEATS", value, min);
        assert_eq!(parse(None, 1), Ok(None));
        assert_eq!(parse(Some(""), 1), Ok(None));
        assert_eq!(parse(Some(" 3 "), 1), Ok(Some(3)));
        assert_eq!(parse(Some("0"), 0), Ok(Some(0)));
        for bad in ["0", "x", "-1", "2.5"] {
            let message = parse(Some(bad), 1).unwrap_err();
            assert!(
                message.starts_with(&format!("NETPACK_REPEATS={bad}:")),
                "{message}"
            );
        }
    }

    #[test]
    fn flag_variables_reject_what_they_cannot_use() {
        let parse = |value| parse_flag("NETPACK_QUICK", value);
        for off in [None, Some(""), Some("0"), Some(" 0 ")] {
            assert_eq!(parse(off), Ok(false), "{off:?}");
        }
        assert_eq!(parse(Some("1")), Ok(true));
        for bad in ["false", "true", "yes", "2", "01"] {
            let message = parse(Some(bad)).unwrap_err();
            assert!(
                message.starts_with(&format!("NETPACK_QUICK={bad}:")),
                "{message}"
            );
        }
    }

    #[test]
    fn loaded_trace_respects_cluster_size() {
        let spec = testbed_spec();
        let t = loaded_trace(TraceKind::Real, &spec, 50, 1);
        assert_eq!(t.jobs().len(), 50);
        assert!(t.jobs().iter().all(|j| j.gpus <= spec.total_gpus()));
    }
}
