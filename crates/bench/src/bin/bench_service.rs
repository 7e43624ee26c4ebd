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
//! The driver is [`netpack_bench::replay`]: the
//! [`ServiceCore`](netpack_service::ServiceCore) called synchronously,
//! one placement pass every `max_batch` commands — the batch schedule the
//! threaded [`PlacementService`](netpack_service::PlacementService) runs
//! when its queue is deep. Its schedule depends on the trace alone; the
//! bench crate's `smoke` test replays it twice and pins its counters and
//! event log. The threaded front end on this same schedule is the
//! `service_saturate` workload of `benchmark/run.sh`, the number a claim
//! is measured by.
//!
//! The service library reads no environment, and this binary leaves
//! every [`ServiceConfig`] tunable at its default. `NETPACK_PERF=1` prints the merged service + placer perf
//! counters.
//!
//! Scale with `NETPACK_QUICK=1` (50K jobs); the default is the 1M-job
//! acceptance run.

use netpack_bench::{emit_table, print_perf, quick, replay, service_trace};
use netpack_metrics::{LatencyHistogram, TextTable};
use netpack_service::ServiceConfig;
use netpack_topology::ClusterSpec;

fn percentiles_us(hist: Option<&LatencyHistogram>) -> (u64, u64, u64) {
    match hist {
        Some(h) => (h.p50() / 1_000, h.p99() / 1_000, h.p999() / 1_000),
        None => (0, 0, 0),
    }
}

fn main() {
    let jobs = if quick() { 50_000 } else { 1_000_000 };
    // The Fig. 10 evaluation cluster: 16 racks × 16 servers × 4 GPUs.
    let spec = ClusterSpec::paper_default();
    let trace = service_trace(&spec, jobs, 1);

    println!(
        "bench_service — open-loop Philly trace, Fig. 10 cluster ({} GPUs)",
        spec.total_gpus()
    );
    println!("jobs={jobs}\n");

    let (report, wall_s) = replay(&spec, &trace, ServiceConfig::default());

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
    table.row(vec![
        "completed pending".into(),
        c.completed_pending.to_string(),
    ]);
    table.row(vec!["batches".into(), c.batches.to_string()]);
    table.row(vec![
        "max queue depth".into(),
        c.max_queue_depth.to_string(),
    ]);
    table.row(vec![
        "running at shutdown".into(),
        report.running_left.to_string(),
    ]);
    table.row(vec![
        "pending at shutdown".into(),
        report.pending_left.to_string(),
    ]);
    table.row(vec!["wall (s)".into(), format!("{wall_s:.3}")]);
    table.row(vec!["placements/sec".into(), format!("{throughput:.0}")]);
    table.row(vec!["p50 latency (us)".into(), p50_us.to_string()]);
    table.row(vec!["p99 latency (us)".into(), p99_us.to_string()]);
    table.row(vec!["p999 latency (us)".into(), p999_us.to_string()]);
    emit_table("bench_service", &table);

    print_perf("perf counters (service + placer):", &report.perf);
}
