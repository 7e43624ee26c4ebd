//! The benchmark's whole coupling to the program.
//!
//! Every call into a `netpack-*` crate is made from this file, through the
//! public functions listed in `benchmark/README.md` ("Frozen surface"). A
//! later change that alters one of those signatures has to edit this file
//! and therefore may not claim a gain in the same change. Each call is
//! wrapped in a span named after the layer it enters, so the traced run
//! sees every boundary; with tracing off a span is one thread-local read.
//!
//! Configurations are built with `..Default::default()` and only the
//! worker-count fields set, so library defaults stay the library's.

use crate::trace::span;

pub use netpack_flowsim::SimResult;
pub use netpack_metrics::{LatencyHistogram, PerfCounters};
pub use netpack_model::Placement;
pub use netpack_placement::{BatchOutcome, NetPackPlacer, NetPackSession, ServerStats};
pub use netpack_service::{Command, PlacementService, ServiceCore, ServiceReport};
pub use netpack_topology::{Cluster, ClusterSpec, JobId};
pub use netpack_waterfill::{IncrementalEstimator, PlacedJob, SteadyState, WaterfillStats};
pub use netpack_workload::{Job, Trace};

use netpack_flowsim::{SimConfig, Simulation};
use netpack_placement::{select_job_subset, CandidateFilter, NetPackConfig, Placer, WorkerDp};
use netpack_service::ServiceConfig;
use netpack_topology::{FlatTopology, ServerId};
use netpack_workload::{ModelKind, TraceKind, TraceSpec};

// ---------------------------------------------------------------- inputs

/// The paper's evaluation cluster: 16 racks × 16 servers × 4 GPUs.
pub fn paper_spec() -> ClusterSpec {
    ClusterSpec::paper_default()
}

/// `servers` servers in at most 16 racks, as Fig. 9 and Fig. 10 scale it.
pub fn scaled_spec(servers: usize) -> ClusterSpec {
    let racks = 16.min(servers);
    ClusterSpec {
        racks,
        servers_per_rack: servers / racks,
        ..ClusterSpec::paper_default()
    }
}

/// The `fig10_xl` warehouse: 32 pods × 49 racks × 32 servers × 4 GPUs.
pub fn warehouse_spec() -> ClusterSpec {
    ClusterSpec {
        racks: 32 * 49,
        servers_per_rack: 32,
        gpus_per_server: 4,
        racks_per_pod: Some(49),
        ..ClusterSpec::paper_default()
    }
}

/// The `bench_service` trace: open-loop `Real` arrivals at 85 % offered
/// GPU load on `spec`, demands up to 64 GPUs, durations scaled by 0.3.
pub fn service_trace(spec: &ClusterSpec, jobs: usize, seed: u64) -> Trace {
    let _s = span("workload.trace_generate");
    let duration_scale = 0.3;
    // Log-normal mean duration: median 480 s, sigma 1.1 (see TraceSpec).
    let mean_duration_s = 480.0 * (1.1f64 * 1.1 / 2.0).exp() * duration_scale;
    let interarrival = 4.5 * mean_duration_s / (spec.total_gpus() as f64 * 0.85);
    TraceSpec::new(TraceKind::Real, jobs)
        .seed(seed)
        .open_loop()
        .mean_interarrival_s(interarrival)
        .duration_scale(duration_scale)
        .max_gpus(64)
        .generate()
}

/// The figure binaries' `loaded_trace` recipe for the `Real` family:
/// bursty arrivals at 115 % offered load on `base`.
pub fn loaded_trace(base: &ClusterSpec, jobs: usize, seed: u64) -> Trace {
    let _s = span("workload.trace_generate");
    let max = (base.total_gpus() / 2).clamp(2, 64);
    let duration_scale = 0.3;
    let mean_duration_s = 480.0 * (1.1f64 * 1.1 / 2.0).exp() * duration_scale;
    let mean_gpus = 4.5f64.min(max as f64 / 2.0);
    let interarrival = mean_gpus * mean_duration_s / (base.total_gpus() as f64 * 1.15);
    TraceSpec::new(TraceKind::Real, jobs)
        .seed(seed)
        .mean_interarrival_s(interarrival)
        .duration_scale(duration_scale)
        .max_gpus(max)
        .generate()
}

/// The Fig. 10 / `fig10_xl` batch: xorshift demands in `1..max_gpus`, one
/// of the six models each.
pub fn xorshift_batch(jobs: usize, max_gpus: usize, seed: u64) -> Vec<Job> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..jobs)
        .map(|i| {
            let gpus = (next() % max_gpus as u64).max(1) as usize;
            let model = ModelKind::ALL[(next() % 6) as usize];
            Job::builder(JobId(i as u64), model, gpus).build()
        })
        .collect()
}

// --------------------------------------------------------------- configs

/// Placer configuration with `workers` placer threads (`None`: the
/// library default, `sweep_threads()`).
fn placer_config(workers: Option<usize>) -> NetPackConfig {
    NetPackConfig {
        threads: workers,
        ..NetPackConfig::default()
    }
}

/// Service configuration: `Some(n)` pins both worker-count fields to `n`,
/// `None` is `ServiceConfig::default()` untouched.
pub fn service_config(workers: Option<usize>) -> ServiceConfig {
    match workers {
        Some(n) => ServiceConfig {
            threads: n,
            placer: placer_config(Some(n)),
            ..ServiceConfig::default()
        },
        None => ServiceConfig::default(),
    }
}

/// The same, recording the event log.
pub fn service_config_logged(workers: Option<usize>) -> ServiceConfig {
    ServiceConfig {
        event_log: true,
        ..service_config(workers)
    }
}

/// `(ServiceConfig::threads, max_batch)` as the configuration echoes them.
pub fn service_config_echo(config: &ServiceConfig) -> (usize, usize) {
    (config.threads, config.max_batch)
}

// -------------------------------------------------------------- topology

pub fn cluster_new(spec: ClusterSpec) -> Cluster {
    let _s = span("topology.cluster_new");
    Cluster::new(spec)
}

/// Builds and drops the flat mirror; returns its server count.
pub fn flat_new(cluster: &Cluster) -> usize {
    let _s = span("topology.flat_new");
    FlatTopology::new(cluster).num_servers()
}

/// GPUs per server, total GPUs.
pub fn cluster_shape(cluster: &Cluster) -> (usize, usize) {
    (cluster.spec().gpus_per_server, cluster.total_gpus())
}

// --------------------------------------------------------------- service

pub fn service_spawn(cluster: Cluster, config: ServiceConfig) -> PlacementService {
    let _s = span("service.runtime.spawn");
    PlacementService::spawn(cluster, config)
}

pub fn service_send_many(svc: &PlacementService, cmds: std::vec::Drain<'_, Command>) -> usize {
    let _s = span("service.runtime.send_many");
    svc.send_many(cmds)
}

pub fn service_shutdown(svc: PlacementService) -> ServiceReport {
    let _s = span("service.runtime.shutdown");
    svc.shutdown()
}

pub fn core_new(cluster: Cluster, config: ServiceConfig) -> ServiceCore {
    let _s = span("service.core_new");
    ServiceCore::new(cluster, config)
}

pub fn core_apply_all(core: &mut ServiceCore, cmds: std::vec::Drain<'_, Command>) {
    let _s = span("service.apply");
    for cmd in cmds {
        core.apply(cmd);
    }
}

pub fn core_place_pass(core: &mut ServiceCore) -> usize {
    let _s = span("service.place_pass");
    core.place_pass()
}

pub fn core_pending_len(core: &ServiceCore) -> usize {
    core.pending_len()
}

pub fn core_session(core: &ServiceCore) -> &NetPackSession {
    core.session()
}

pub fn core_finish(core: ServiceCore) -> ServiceReport {
    core.finish()
}

/// `failed` operations of a service run.
pub fn service_failed(report: &ServiceReport) -> u64 {
    report.counters.rejected + report.counters.unknown_ops
}

// ------------------------------------------------------------- placement

pub fn session_new(cluster: Cluster, workers: Option<usize>) -> NetPackSession {
    NetPackSession::new(cluster, placer_config(workers))
}

pub fn session_place_batch(session: &mut NetPackSession, batch: &[Job]) -> BatchOutcome {
    let _s = span("placement.session_place_batch");
    session.place_batch(batch)
}

/// `false` when the id is not running.
pub fn session_complete(session: &mut NetPackSession, id: JobId) -> bool {
    let _s = span("placement.session_complete");
    session.complete(id).is_ok()
}

/// `(id, gradient gbits, placement)` of every running job.
pub fn session_running(
    session: &NetPackSession,
) -> impl Iterator<Item = (JobId, f64, &Placement)> + '_ {
    session
        .running()
        .iter()
        .map(|r| (r.id, r.gradient_gbits, &r.placement))
}

pub fn session_state(session: &NetPackSession) -> &SteadyState {
    session.state()
}

pub fn session_free_gpus(session: &NetPackSession) -> usize {
    session.free_gpus()
}

pub fn placer_new(workers: Option<usize>) -> NetPackPlacer {
    NetPackPlacer::new(placer_config(workers))
}

/// Stateless batch placement on an empty cluster.
pub fn placer_place_batch(
    placer: &mut NetPackPlacer,
    cluster: &Cluster,
    batch: &[Job],
) -> BatchOutcome {
    let _s = span("placement.place_batch");
    placer.place_batch(cluster, &[], batch)
}

pub fn placer_perf(placer: &NetPackPlacer) -> &PerfCounters {
    placer.perf()
}

pub fn knapsack(batch: &[Job], free_gpus: usize) -> usize {
    let _s = span("placement.knapsack");
    select_job_subset(batch, free_gpus).len()
}

pub fn server_stats(id: usize, gpus_free: usize, value: f64, flows: u32) -> ServerStats {
    ServerStats {
        id: ServerId(id),
        gpus_free,
        value,
        flows,
    }
}

/// Offer every server to a fresh filter; returns `(offered, kept, the
/// kept candidates)`.
pub fn filter_offer(
    gpus_per_server: usize,
    demand: usize,
    offers: &[ServerStats],
) -> (u64, usize, Vec<ServerStats>) {
    let _s = span("placement.filter_offer");
    let fs_max = NetPackConfig::default().fs_max;
    let mut filter =
        CandidateFilter::new(gpus_per_server, demand, gpus_per_server - 1, Some(fs_max));
    for &o in offers {
        filter.offer(o);
    }
    (filter.offered(), filter.kept(), filter.candidates())
}

pub fn worker_dp_plans(servers: &[ServerStats], demand: usize, slack: usize) -> usize {
    let _s = span("placement.worker_dp_plans");
    WorkerDp::new(NetPackConfig::default().fs_max)
        .plans(servers, demand, slack)
        .len()
}

// ------------------------------------------------------------- waterfill

pub fn placed_job(id: JobId, cluster: &Cluster, placement: &Placement) -> PlacedJob {
    PlacedJob::new(id, cluster, placement)
}

/// Algorithm 1 from scratch.
pub fn waterfill_estimate(cluster: &Cluster, jobs: &[PlacedJob]) -> SteadyState {
    let _s = span("waterfill.estimate");
    netpack_waterfill::estimate(cluster, jobs)
}

pub fn estimator_new(cluster: &Cluster) -> IncrementalEstimator {
    IncrementalEstimator::new(cluster, &[])
}

pub fn estimator_push(est: &mut IncrementalEstimator, cluster: &Cluster, job: PlacedJob) {
    let _s = span("waterfill.push");
    est.push(cluster, job);
}

pub fn estimator_remove(est: &mut IncrementalEstimator, cluster: &Cluster, id: JobId) -> bool {
    let _s = span("waterfill.remove");
    est.remove(cluster, id)
}

pub fn estimator_pop(est: &mut IncrementalEstimator, cluster: &Cluster) -> bool {
    let _s = span("waterfill.pop");
    est.pop(cluster).is_some()
}

pub fn estimator_stats(est: &IncrementalEstimator) -> WaterfillStats {
    *est.stats()
}

/// Per-iteration communication seconds of `id` under `state`.
pub fn comm_time_s(state: &SteadyState, id: JobId, gradient_gbits: f64) -> Option<f64> {
    state.comm_time_s(id, gradient_gbits)
}

// --------------------------------------------------------------- flowsim

/// One simulator cell: replay `trace` on `cluster` to completion under
/// NetPack with one placer worker.
pub fn simulate(cluster: Cluster, trace: &Trace) -> SimResult {
    let placer: Box<dyn Placer> = Box::new(placer_new(Some(1)));
    let sim = Simulation::new(cluster, placer, SimConfig::default());
    let _s = span("flowsim.run");
    sim.run(trace)
}
