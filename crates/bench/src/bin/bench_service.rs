//! Sustained placement throughput of the continuous placement service.
//!
//! Replays an open-loop Philly-style (`TraceKind::Real`) trace over the
//! Fig. 10 cluster (16 racks × 16 servers × 4 GPUs) through
//! `netpack-service`: submissions arrive in trace order, each job's
//! completion is injected at its ideal finish time, and the two streams
//! are merged in virtual-time order so the service sees the same churn a
//! live cluster would — just as fast as it can drain it. Reported:
//! sustained placements/sec and the submit-to-placement latency
//! percentiles (p50/p99/p999) of this one run.
//!
//! The driver is the [`ServiceCore`] called synchronously, one placement
//! pass every `max_batch` commands — the batch schedule the threaded
//! [`PlacementService`](netpack_service::PlacementService) runs when its
//! queue is deep. It is byte-reproducible: with
//! `NETPACK_SERVICE_EVENT_LOG=<path>` the full event log is recorded and
//! written for `scripts/check.sh` to diff across runs (`0`, `1` and
//! empty name no file, so nothing is recorded). The threaded front end on
//! this same schedule is the `service_saturate` workload of
//! `benchmark/run.sh`, the number a claim is measured by.
//!
//! The service library reads no environment: this binary parses those
//! variables into a [`ServiceConfig`] and leaves every other tunable at
//! its default. `NETPACK_PERF=1` prints the merged service + placer perf
//! counters.
//!
//! Scale with `NETPACK_QUICK=1` (50K jobs) or `NETPACK_SMOKE=1`
//! (10K jobs, no wall-clock rows); the default is the 1M-job acceptance run.
//! `NETPACK_SERVICE_JOBS=<n>` overrides all three (`scripts/check.sh`
//! uses it for the 2 000-job debug-build replay).

use netpack_bench::{emit_table, print_perf, quick, smoke};
use netpack_metrics::{LatencyHistogram, Stopwatch, TextTable};
use netpack_service::{Command, ServiceConfig, ServiceCore, ServiceReport};
use netpack_topology::{Cluster, ClusterSpec, JobId};
use netpack_workload::{Trace, TraceKind, TraceSpec};

/// The Fig. 10 evaluation cluster: 16 racks × 16 servers × 4 GPUs.
fn spec() -> ClusterSpec {
    ClusterSpec::paper_default()
}

/// Open-loop Philly-style trace tuned to ~85% offered GPU load, so the
/// service churns continuously without the queue diverging.
fn service_trace(spec: &ClusterSpec, jobs: usize, seed: u64) -> Trace {
    let duration_scale = 0.3;
    // Log-normal mean duration: median 480 s, sigma 1.1 (see TraceSpec).
    let mean_duration_s = 480.0 * (1.1f64 * 1.1 / 2.0).exp() * duration_scale;
    let mean_gpus = 4.5;
    let utilization_target = 0.85;
    let interarrival = mean_gpus * mean_duration_s / (spec.total_gpus() as f64 * utilization_target);
    TraceSpec::new(TraceKind::Real, jobs)
        .seed(seed)
        .open_loop()
        .mean_interarrival_s(interarrival)
        .duration_scale(duration_scale)
        .max_gpus(64)
        .generate()
}

/// The merged command schedule: submissions in arrival order interleaved
/// with completions at `arrival + ideal_time` in virtual-time order. The
/// closure receives each command as it becomes due.
fn replay(trace: &Trace, mut issue: impl FnMut(Command)) {
    let jobs = trace.jobs();
    let mut completions: Vec<(f64, JobId)> = jobs
        .iter()
        .map(|j| (j.arrival_s + j.ideal_time_s(), j.id))
        .collect();
    completions.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
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
}

fn run(trace: &Trace, config: ServiceConfig) -> (ServiceReport, f64) {
    // A fixed drain quantum: the command schedule — and therefore the
    // event log — depends only on the trace.
    let quantum = config.max_batch;
    let mut core = ServiceCore::new(Cluster::new(spec()), config);
    let wall = Stopwatch::start();
    let mut since_pass = 0usize;
    replay(trace, |cmd| {
        core.apply(cmd);
        since_pass += 1;
        if since_pass == quantum {
            let _ = core.place_pass();
            since_pass = 0;
        }
    });
    while core.pending_len() > 0 && core.place_pass() > 0 {}
    let wall_s = wall.elapsed_s();
    (core.finish(), wall_s)
}

fn percentiles_us(hist: Option<&LatencyHistogram>) -> (u64, u64, u64) {
    match hist {
        Some(h) => (h.p50() / 1_000, h.p99() / 1_000, h.p999() / 1_000),
        None => (0, 0, 0),
    }
}

fn main() {
    let jobs = std::env::var("NETPACK_SERVICE_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(if smoke() {
            10_000
        } else if quick() {
            50_000
        } else {
            1_000_000
        });
    let event_log_path = std::env::var("NETPACK_SERVICE_EVENT_LOG")
        .ok()
        .filter(|p| !p.is_empty() && p != "0" && p != "1");
    let config = ServiceConfig {
        event_log: event_log_path.is_some(),
        ..ServiceConfig::default()
    };
    let trace = service_trace(&spec(), jobs, 1);

    println!("bench_service — open-loop Philly trace, Fig. 10 cluster ({} GPUs)", spec().total_gpus());
    println!("jobs={jobs}\n");

    let (report, wall_s) = run(&trace, config);

    let placed = report.counters.placed;
    let throughput = placed as f64 / wall_s.max(1e-9);
    let (p50_us, p99_us, p999_us) = percentiles_us(report.perf.latency("placement_latency"));

    let mut table = TextTable::new(vec!["metric", "value"]);
    let c = &report.counters;
    table.row(vec!["submitted".into(), c.submitted.to_string()]);
    table.row(vec!["placed".into(), placed.to_string()]);
    table.row(vec!["deferrals".into(), c.deferrals.to_string()]);
    table.row(vec!["rejected".into(), c.rejected.to_string()]);
    table.row(vec!["completed".into(), c.completed.to_string()]);
    table.row(vec!["completed pending".into(), c.completed_pending.to_string()]);
    table.row(vec!["batches".into(), c.batches.to_string()]);
    table.row(vec!["max queue depth".into(), c.max_queue_depth.to_string()]);
    table.row(vec!["running at shutdown".into(), report.running_left.to_string()]);
    table.row(vec!["pending at shutdown".into(), report.pending_left.to_string()]);
    if !smoke() {
        // Wall-clock rows stay out of the smoke digest so the determinism
        // gate can byte-diff stdout across runs.
        table.row(vec!["wall (s)".into(), format!("{wall_s:.3}")]);
        table.row(vec!["placements/sec".into(), format!("{throughput:.0}")]);
        table.row(vec!["p50 latency (us)".into(), p50_us.to_string()]);
        table.row(vec!["p99 latency (us)".into(), p99_us.to_string()]);
        table.row(vec!["p999 latency (us)".into(), p999_us.to_string()]);
    }
    emit_table("bench_service", &table);

    print_perf("perf counters (service + placer):", &report.perf);

    if let Some(path) = event_log_path {
        let mut text = report.events.join("\n");
        text.push('\n');
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        // stderr, not stdout: the determinism gate byte-diffs stdout
        // across runs that write to different log paths.
        eprintln!("event log: {} lines -> {path}", report.events.len());
    }
}
