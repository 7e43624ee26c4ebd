//! Property tests for the flow-level simulator: accounting invariants that
//! must hold for any trace and any placer.

use netpack_flowsim::{InaMode, SimConfig, Simulation};
use netpack_placement::{GpuBalance, NetPackPlacer, Placer, RandomPlacer};
use netpack_topology::{Cluster, ClusterSpec, JobId};
use netpack_workload::{Job, ModelKind, Trace};
use proptest::prelude::*;

fn arb_trace(max_gpus: usize) -> impl Strategy<Value = Trace> {
    proptest::collection::vec(
        (1usize..9, 1u64..60, 0u32..200, 0usize..6),
        1..12,
    )
    .prop_map(move |raw| {
        let jobs: Vec<Job> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (gpus, iters, arrival_ds, model))| {
                Job::builder(
                    JobId(i as u64),
                    ModelKind::ALL[model],
                    gpus.min(max_gpus.max(1)),
                )
                .iterations(iters)
                .arrival_s(arrival_ds as f64 / 10.0)
                .build()
            })
            .collect();
        Trace::from_jobs(jobs)
    })
}

fn placers() -> Vec<Box<dyn Placer>> {
    vec![
        Box::new(NetPackPlacer::default()),
        Box::new(GpuBalance),
        Box::new(RandomPlacer::new(5)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every job is accounted for exactly once; completion times are
    /// ordered sanely; no job beats the laws of physics.
    #[test]
    fn accounting_invariants(trace in arb_trace(16)) {
        let spec = ClusterSpec {
            racks: 2,
            servers_per_rack: 4,
            gpus_per_server: 2,
            ..ClusterSpec::paper_default()
        };
        for placer in placers() {
            let name = placer.name();
            let result = Simulation::new(
                Cluster::new(spec.clone()),
                placer,
                SimConfig::default(),
            )
            .run(&trace);
            prop_assert_eq!(
                result.outcomes.len() + result.unfinished.len(),
                trace.jobs().len(),
                "{} lost a job",
                name
            );
            for o in &result.outcomes {
                let job = trace.jobs().iter().find(|j| j.id == o.id).expect("known job");
                prop_assert!(o.start_s + 1e-9 >= o.arrival_s, "{name}: started before arrival");
                prop_assert!(o.finish_s >= o.start_s, "{name}: finished before start");
                // Can't finish faster than the communication-free ideal.
                let ideal = job.ideal_time_s();
                prop_assert!(
                    o.finish_s - o.start_s + 1e-6 >= ideal,
                    "{name}: ran faster than ideal ({} < {ideal})",
                    o.finish_s - o.start_s
                );
                prop_assert!(o.finish_s <= result.makespan_s + 1e-6);
            }
        }
    }

    /// Determinism: the same trace and placer produce identical results.
    #[test]
    fn replay_is_deterministic(trace in arb_trace(8)) {
        let spec = ClusterSpec {
            racks: 1,
            servers_per_rack: 4,
            gpus_per_server: 2,
            ..ClusterSpec::paper_default()
        };
        let run = || {
            Simulation::new(
                Cluster::new(spec.clone()),
                Box::new(NetPackPlacer::default()),
                SimConfig::default(),
            )
            .run(&trace)
        };
        prop_assert_eq!(run(), run());
    }

    /// Raising cluster capacity never loses jobs, and total GPU-seconds of
    /// finished jobs are identical across placers (work conservation).
    #[test]
    fn work_is_conserved_across_placers(trace in arb_trace(8)) {
        let spec = ClusterSpec {
            racks: 2,
            servers_per_rack: 4,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        };
        let mut serial_sums = Vec::new();
        for placer in placers() {
            let result = Simulation::new(
                Cluster::new(spec.clone()),
                placer,
                SimConfig::default(),
            )
            .run(&trace);
            prop_assert!(result.unfinished.is_empty());
            let sum: f64 = result.outcomes.iter().map(|o| o.serial_time_s).sum();
            serial_sums.push(sum);
        }
        for w in serial_sums.windows(2) {
            prop_assert!((w[0] - w[1]).abs() < 1e-6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `run` replays any trace with a *bit-identical* `SimResult` —
    /// outcomes, unfinished set, makespan, telemetry, and GPU-seconds —
    /// to the from-scratch `run_reference`, across random clusters, INA
    /// modes (including synchronous), and placers. Exact equality is deliberate: the warm estimator must
    /// replay the very same float-op sequence, not merely approximate it.
    #[test]
    fn incremental_replay_is_bit_identical_to_scratch(
        (trace, racks, sync_mode, telemetry, placer_pick) in (
            arb_trace(8),
            1usize..3,
            any::<bool>(),
            any::<bool>(),
            0usize..3,
        )
    ) {
        let spec = ClusterSpec {
            racks,
            servers_per_rack: 4,
            gpus_per_server: 2,
            ..ClusterSpec::paper_default()
        };
        let ina_mode = if sync_mode { InaMode::Synchronous } else { InaMode::Statistical };
        let sim = || {
            let config = SimConfig {
                ina_mode,
                telemetry_interval_s: telemetry.then_some(20.0),
                ..SimConfig::default()
            };
            let placer: Box<dyn Placer> = match placer_pick {
                0 => Box::new(NetPackPlacer::default()),
                1 => Box::new(GpuBalance),
                _ => Box::new(RandomPlacer::new(5)),
            };
            Simulation::new(Cluster::new(spec.clone()), placer, config)
        };
        prop_assert_eq!(sim().run(&trace), sim().run_reference(&trace));
    }
}
