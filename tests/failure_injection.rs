//! Failure-injection integration tests: degenerate clusters, hostile
//! traces, and misbehaving placers must fail loudly or degrade gracefully,
//! never corrupt state.

use netpack::placement::BatchOutcome;
use netpack::prelude::*;

#[test]
fn zero_pat_cluster_still_schedules_everything() {
    let spec = ClusterSpec {
        racks: 2,
        servers_per_rack: 4,
        pat_gbps: 0.0,
        ..ClusterSpec::paper_default()
    };
    let trace = TraceSpec::new(TraceKind::Real, 30)
        .seed(2)
        .duration_scale(0.05)
        .max_gpus(16)
        .generate();
    let result = Simulation::new(
        Cluster::new(spec),
        Box::new(NetPackPlacer::default()),
        SimConfig::default(),
    )
    .run(&trace);
    assert_eq!(result.outcomes.len(), 30);
}

#[test]
fn extreme_oversubscription_still_schedules_everything() {
    let spec = ClusterSpec {
        racks: 4,
        servers_per_rack: 4,
        oversubscription: 20.0,
        ..ClusterSpec::paper_default()
    };
    let trace = TraceSpec::new(TraceKind::Normal, 25)
        .seed(4)
        .duration_scale(0.05)
        .max_gpus(24)
        .generate();
    let result = Simulation::new(
        Cluster::new(spec),
        Box::new(NetPackPlacer::default()),
        SimConfig::default(),
    )
    .run(&trace);
    assert_eq!(result.outcomes.len(), 25);
    assert!(result.unfinished.is_empty());
}

#[test]
fn empty_trace_is_a_clean_noop() {
    let result = Simulation::new(
        Cluster::new(ClusterSpec::paper_testbed()),
        Box::new(NetPackPlacer::default()),
        SimConfig::default(),
    )
    .run(&Trace::default());
    assert!(result.outcomes.is_empty());
    assert!(result.unfinished.is_empty());
    assert_eq!(result.makespan_s, 0.0);
}

#[test]
fn single_server_cluster_serializes_all_jobs() {
    let spec = ClusterSpec {
        racks: 1,
        servers_per_rack: 1,
        gpus_per_server: 2,
        ..ClusterSpec::paper_default()
    };
    let jobs: Vec<Job> = (0..5)
        .map(|i| {
            Job::builder(JobId(i), ModelKind::AlexNet, 2)
                .iterations(10)
                .build()
        })
        .collect();
    let result = Simulation::new(
        Cluster::new(spec),
        Box::new(NetPackPlacer::default()),
        SimConfig::default(),
    )
    .run(&Trace::from_jobs(jobs));
    assert_eq!(result.outcomes.len(), 5);
    // Strictly one at a time: no two run intervals overlap.
    let mut intervals: Vec<(f64, f64)> = result
        .outcomes
        .iter()
        .map(|o| (o.start_s, o.finish_s))
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    for w in intervals.windows(2) {
        assert!(w[1].0 >= w[0].1 - 1e-6, "overlap: {w:?}");
    }
}

#[test]
fn sim_time_cap_reports_unfinished_jobs() {
    let job = Job::builder(JobId(0), ModelKind::ResNet101, 2)
        .iterations(1_000_000)
        .build();
    let config = SimConfig {
        max_sim_time_s: 100.0,
        ..SimConfig::default()
    };
    let result = Simulation::new(
        Cluster::new(ClusterSpec::paper_testbed()),
        Box::new(NetPackPlacer::default()),
        config,
    )
    .run(&Trace::from_jobs(vec![job]));
    assert!(result.outcomes.is_empty());
    assert_eq!(result.unfinished, vec![JobId(0)]);
    assert!(result.makespan_s <= 100.0 + 1e-6);
}

/// A deliberately broken placer that over-commits GPUs; the job manager
/// must reject it loudly rather than corrupting the ledger.
struct EvilPlacer;

impl Placer for EvilPlacer {
    fn name(&self) -> &'static str {
        "Evil"
    }

    fn place_batch(
        &mut self,
        _cluster: &Cluster,
        _running: &[netpack::placement::RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        BatchOutcome {
            placed: batch
                .iter()
                .map(|j| {
                    // Claims 100 workers on server 0 regardless of capacity.
                    (j.clone(), Placement::new(vec![(ServerId(0), 100)], None))
                })
                .collect(),
            deferred: Vec::new(),
        }
    }
}

#[test]
#[should_panic(expected = "invalid placement")]
fn manager_panics_on_over_committing_placer() {
    use netpack::manager::JobManager;
    let mut m = JobManager::new(
        Cluster::new(ClusterSpec::paper_testbed()),
        Box::new(EvilPlacer),
    );
    m.submit(Job::builder(JobId(0), ModelKind::AlexNet, 1).build());
    let _ = m.run_epoch();
}

#[test]
fn exact_placer_with_ina_enumeration_is_no_worse() {
    use netpack::placement::{batch_comm_time_s, ExactPlacer};
    let cluster = Cluster::new(ClusterSpec {
        racks: 1,
        servers_per_rack: 3,
        gpus_per_server: 2,
        pat_gbps: 20.0,
        ..ClusterSpec::paper_default()
    });
    let batch = vec![Job::builder(JobId(0), ModelKind::Vgg16, 3).build()];
    let plain = {
        let mut p = ExactPlacer::default();
        let out = p.place_batch(&cluster, &[], &batch);
        batch_comm_time_s(&cluster, &[], &out.placed)
    };
    let with_ina = {
        let mut p = ExactPlacer::default().enumerate_ina(true);
        let out = p.place_batch(&cluster, &[], &batch);
        batch_comm_time_s(&cluster, &[], &out.placed)
    };
    assert!(with_ina <= plain + 1e-9);
}
