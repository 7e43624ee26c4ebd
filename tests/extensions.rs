//! Integration tests for the extension features: gradient sharding and
//! the synchronous-INA cluster mode, exercised through the public facade.

use netpack::flowsim::InaMode;
use netpack::placement::{InaPolicy, NetPackConfig};
use netpack::prelude::*;

fn cluster() -> ClusterSpec {
    ClusterSpec {
        racks: 2,
        servers_per_rack: 6,
        gpus_per_server: 4,
        pat_gbps: 100.0,
        ..ClusterSpec::paper_default()
    }
}

#[test]
fn sharded_placements_replay_end_to_end() {
    let trace = TraceSpec::new(TraceKind::Real, 30)
        .seed(13)
        .duration_scale(0.05)
        .max_gpus(16)
        .generate();
    let placer = NetPackPlacer::new(NetPackConfig {
        pses_per_job: 2,
        ..NetPackConfig::default()
    });
    let result = Simulation::new(
        Cluster::new(cluster()),
        Box::new(placer),
        SimConfig::default(),
    )
    .run(&trace);
    assert_eq!(result.outcomes.len(), 30);
    assert!(result.unfinished.is_empty());
}

#[test]
fn sharding_beats_single_ps_when_ina_is_off() {
    let spec = ClusterSpec {
        pat_gbps: 0.0,
        ..cluster()
    };
    let trace = TraceSpec::new(TraceKind::Normal, 40)
        .seed(21)
        .mean_interarrival_s(5.0)
        .duration_scale(0.1)
        .max_gpus(24)
        .generate();
    let run = |k: usize| {
        let placer = NetPackPlacer::new(NetPackConfig {
            pses_per_job: k,
            ina_policy: InaPolicy::AlwaysOff,
            ..NetPackConfig::default()
        });
        Simulation::new(
            Cluster::new(spec.clone()),
            Box::new(placer),
            SimConfig::default(),
        )
        .run(&trace)
        .average_jct_s()
        .expect("jobs finished")
    };
    let one = run(1);
    let two = run(2);
    assert!(
        two <= one * 1.02,
        "2-PS sharding should not lose with INA off: {one} vs {two}"
    );
}

#[test]
fn synchronous_mode_replays_the_full_roster_workload() {
    let trace = TraceSpec::new(TraceKind::Poisson, 25)
        .seed(3)
        .duration_scale(0.05)
        .max_gpus(16)
        .generate();
    let config = SimConfig {
        ina_mode: InaMode::Synchronous,
        ..SimConfig::default()
    };
    for placer in [
        Box::new(NetPackPlacer::default()) as Box<dyn Placer>,
        Box::new(GpuBalance),
    ] {
        let name = placer.name();
        let result = Simulation::new(Cluster::new(cluster()), placer, config).run(&trace);
        assert_eq!(result.outcomes.len(), 25, "{name}");
    }
}

#[test]
fn estimate_synchronous_is_exposed_through_the_facade() {
    use netpack::waterfill::estimate_synchronous;
    let c = Cluster::new(cluster());
    let placement = Placement::new(vec![(ServerId(0), 2), (ServerId(1), 2)], Some(ServerId(2)));
    let placed = vec![PlacedJob::new(JobId(0), &c, &placement)];
    let stat = estimate(&c, &placed);
    let sync = estimate_synchronous(&c, &placed);
    let rs = stat.job_rate_gbps(JobId(0)).unwrap();
    let ry = sync.job_rate_gbps(JobId(0)).unwrap();
    assert!(rs.is_finite() && ry.is_finite());
    assert!(rs >= ry - 1e-6, "statistical {rs} >= synchronous {ry}");
}

#[test]
fn trace_csv_round_trips_through_the_simulator() {
    let dir = std::env::temp_dir().join("netpack-ext-test");
    let path = dir.join("trace.csv");
    let trace = TraceSpec::new(TraceKind::Real, 15)
        .seed(6)
        .duration_scale(0.03)
        .max_gpus(8)
        .generate();
    trace.write_csv(&path).unwrap();
    let loaded = Trace::read_csv(&path).unwrap();
    let run = |t: &Trace| {
        Simulation::new(
            Cluster::new(cluster()),
            Box::<NetPackPlacer>::default(),
            SimConfig::default(),
        )
        .run(t)
    };
    assert_eq!(run(&trace), run(&loaded));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fat_tree_compiles_and_replays_end_to_end() {
    use netpack::topology::FatTreeSpec;
    let ft = FatTreeSpec {
        pods: 2,
        racks_per_pod: 2,
        servers_per_rack: 4,
        ..FatTreeSpec::paper_like()
    };
    assert!(ft.simultaneous_saturation_is_feasible());
    let cluster = ft.compile().expect("valid fat-tree");
    let trace = TraceSpec::new(TraceKind::Real, 20)
        .seed(17)
        .duration_scale(0.05)
        .max_gpus(16)
        .generate();
    let result = Simulation::new(
        cluster,
        Box::<NetPackPlacer>::default(),
        SimConfig::default(),
    )
    .run(&trace);
    assert_eq!(result.outcomes.len(), 20);
}
