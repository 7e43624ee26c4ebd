//! End-to-end integration tests spanning every crate: trace → manager →
//! placer → water-filling → flow simulation → metrics.

use netpack::prelude::*;

fn testbed() -> ClusterSpec {
    ClusterSpec {
        pat_gbps: 200.0,
        ..ClusterSpec::paper_testbed()
    }
}

fn all_placers() -> Vec<Box<dyn Placer>> {
    vec![
        Box::new(NetPackPlacer::default()),
        Box::new(GpuBalance),
        Box::new(FlowBalance),
        Box::new(LeastFragmentation),
        Box::new(OptimusLike),
        Box::new(TetrisLike),
        Box::new(Comb),
        Box::new(RandomPlacer::new(3)),
    ]
}

#[test]
fn every_placer_replays_a_real_trace_to_completion() {
    let trace = TraceSpec::new(TraceKind::Real, 40)
        .seed(11)
        .duration_scale(0.05)
        .max_gpus(8)
        .generate();
    for placer in all_placers() {
        let name = placer.name();
        let result =
            Simulation::new(Cluster::new(testbed()), placer, SimConfig::default()).run(&trace);
        assert_eq!(result.outcomes.len(), 40, "{name}: all jobs must finish");
        assert!(result.unfinished.is_empty(), "{name}");
        let de = result.distribution_efficiency().unwrap();
        assert!(de > 0.0 && de <= 1.0 + 1e-9, "{name}: DE {de}");
        // JCT >= the ideal communication-free runtime for every job.
        for o in &result.outcomes {
            assert!(
                o.jct_s() + 1e-6 >= o.serial_time_s / o.gpus as f64,
                "{name}: job {} finished faster than physics allows",
                o.id
            );
        }
    }
}

#[test]
fn all_trace_kinds_replay_on_the_simulator_cluster() {
    let spec = ClusterSpec {
        racks: 4,
        servers_per_rack: 4,
        ..ClusterSpec::paper_default()
    };
    for kind in TraceKind::ALL {
        let trace = TraceSpec::new(kind, 30)
            .seed(5)
            .duration_scale(0.05)
            .max_gpus(spec.total_gpus() / 2)
            .generate();
        let result = Simulation::new(
            Cluster::new(spec.clone()),
            Box::new(NetPackPlacer::default()),
            SimConfig::default(),
        )
        .run(&trace);
        assert_eq!(result.outcomes.len(), 30, "{kind}");
    }
}

#[test]
fn netpack_beats_random_placement_under_load() {
    let spec = ClusterSpec {
        racks: 4,
        servers_per_rack: 8,
        ..ClusterSpec::paper_default()
    };
    let mut netpack_total = 0.0;
    let mut random_total = 0.0;
    for seed in 0..3u64 {
        let trace = TraceSpec::new(TraceKind::Real, 80)
            .seed(100 + seed)
            .mean_interarrival_s(5.0)
            .duration_scale(0.2)
            .max_gpus(32)
            .generate();
        let run = |placer: Box<dyn Placer>| {
            Simulation::new(Cluster::new(spec.clone()), placer, SimConfig::default())
                .run(&trace)
                .average_jct_s()
                .unwrap()
        };
        netpack_total += run(Box::<NetPackPlacer>::default());
        random_total += run(Box::new(RandomPlacer::new(seed)));
    }
    assert!(
        netpack_total < random_total,
        "NetPack {netpack_total} should beat Random {random_total}"
    );
}

#[test]
fn manager_ledger_is_conserved_across_a_full_replay() {
    let spec = testbed();
    let trace = TraceSpec::new(TraceKind::Poisson, 50)
        .seed(9)
        .duration_scale(0.03)
        .max_gpus(spec.total_gpus())
        .generate();
    let result = Simulation::new(
        Cluster::new(spec.clone()),
        Box::new(NetPackPlacer::default()),
        SimConfig::default(),
    )
    .run(&trace);
    // Every job finished, so at the end every GPU must have been released
    // (the simulator would have panicked otherwise); verify the outcomes
    // cover the whole trace exactly once.
    let mut ids: Vec<u64> = result.outcomes.iter().map(|o| o.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 50);
}

#[test]
fn waterfill_estimate_matches_placed_batch() {
    // Place a batch with NetPack, then check the estimator is consistent
    // with what the placement validation believes.
    let cluster = Cluster::new(testbed());
    // 2+3+2+3 = 10 GPUs: exactly fills the 5x2 testbed.
    let batch: Vec<Job> = (0..4)
        .map(|i| Job::builder(JobId(i), ModelKind::Vgg16, 2 + (i as usize % 2)).build())
        .collect();
    let mut placer = NetPackPlacer::default();
    let outcome = placer.place_batch(&cluster, &[], &batch);
    assert_eq!(outcome.placed.len(), 4);
    let placed: Vec<PlacedJob> = outcome
        .placed
        .iter()
        .map(|(j, p)| PlacedJob::new(j.id, &cluster, p))
        .collect();
    let state = estimate(&cluster, &placed);
    for (job, placement) in &outcome.placed {
        let rate = state.job_rate_gbps(job.id).unwrap();
        if placement.is_local() {
            assert!(rate.is_infinite());
        } else {
            assert!(rate.is_finite() && rate > 0.0, "{}: rate {rate}", job.id);
        }
    }
}

#[test]
fn packet_sim_respects_the_pat_law_from_cluster_spec() {
    // ClusterSpec::memory_to_pat_gbps and the packet simulator must agree
    // on the PAT abstraction.
    let spec = ClusterSpec::paper_default();
    let config = netpack::packetsim::SwitchConfig {
        pool_slots: 256,
        ..netpack::packetsim::SwitchConfig::default()
    };
    let pat_from_spec = spec.memory_to_pat_gbps(256, config.payload_bytes);
    assert!((config.pat_gbps() - pat_from_spec).abs() < 1e-9);
}

#[test]
fn exact_solver_never_loses_to_netpack_on_tiny_instances() {
    use netpack::placement::{batch_comm_time_s, ExactPlacer};
    let cluster = Cluster::new(ClusterSpec {
        racks: 1,
        servers_per_rack: 3,
        gpus_per_server: 2,
        pat_gbps: 50.0,
        ..ClusterSpec::paper_default()
    });
    for sizes in [vec![3usize], vec![2, 3], vec![2, 2]] {
        let batch: Vec<Job> = sizes
            .iter()
            .enumerate()
            .map(|(i, &g)| Job::builder(JobId(i as u64), ModelKind::Vgg16, g).build())
            .collect();
        let exact_obj = {
            let mut p = ExactPlacer::default();
            let out = p.place_batch(&cluster, &[], &batch);
            batch_comm_time_s(&cluster, &[], &out.placed)
        };
        let dp_obj = {
            let mut p = NetPackPlacer::default();
            let out = p.place_batch(&cluster, &[], &batch);
            batch_comm_time_s(&cluster, &[], &out.placed)
        };
        assert!(
            exact_obj <= dp_obj + 1e-9,
            "exact {exact_obj} must lower-bound dp {dp_obj} for {sizes:?}"
        );
    }
}
