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

/// 40-80 jobs of up to 16 GPUs arriving over five scheduling epochs and
/// running from seconds to minutes: on 128 GPUs the queue backs up, jobs
/// span racks, and completions land between epochs.
fn arb_loaded_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((1usize..17, 50u64..1500, 0u32..3000, 0usize..6), 40..81).prop_map(
        |raw| {
            let jobs: Vec<Job> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (gpus, iters, arrival_ds, model))| {
                    Job::builder(JobId(i as u64), ModelKind::ALL[model], gpus)
                        .iterations(iters)
                        .arrival_s(arrival_ds as f64 / 10.0)
                        .build()
                })
                .collect();
            Trace::from_jobs(jobs)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same bit-identity where a warm session has work to do: four
    /// racks of eight 4-GPU servers under load, PAT from absent through
    /// "runs dry" to "never binds", telemetry on. Completions staged
    /// between epochs, the selective-INA reconciliation (pops and
    /// re-pushes on the estimator the simulator reads) and PAT flips all
    /// meet inside one `NetPackSession`, and every re-rate goes through the
    /// estimator's stamps; GB takes the stateless books beside a warm
    /// estimator through the same trace.
    #[test]
    fn incremental_replay_is_bit_identical_under_load(
        (trace, pat) in (arb_loaded_trace(), 0usize..3)
    ) {
        let spec = ClusterSpec {
            racks: 4,
            servers_per_rack: 8,
            gpus_per_server: 4,
            pat_gbps: [0.0, 50.0, 1000.0][pat],
            ..ClusterSpec::paper_default()
        };
        let placers: [fn() -> Box<dyn Placer>; 2] =
            [|| Box::new(NetPackPlacer::default()), || Box::new(GpuBalance)];
        for placer in placers {
            let sim = || {
                let config = SimConfig {
                    telemetry_interval_s: Some(20.0),
                    ..SimConfig::default()
                };
                Simulation::new(Cluster::new(spec.clone()), placer(), config)
            };
            let (run, oracle) = (sim().run(&trace), sim().run_reference(&trace));
            prop_assert_eq!(&run, &oracle);
            prop_assert!(run.unfinished.is_empty());
            for counter in ["sim_events", "heap_pushes", "heap_stale_pops"] {
                prop_assert_eq!(run.perf.counter(counter), oracle.perf.counter(counter));
            }
            // The warm estimator absorbed completions, and the re-rate
            // pass looked at fewer jobs than the full walk.
            prop_assert!(run.perf.counter("wf_removes") > 0);
            prop_assert!(
                run.perf.counter("sim_rerate_visits") < oracle.perf.counter("sim_rerate_visits")
            );
        }
    }
}
