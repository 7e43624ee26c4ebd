//! Property tests: every placer only ever proposes valid placements, and
//! NetPack's DP never loses to a greedy plan on the same server values.

use netpack_placement::{
    batch_comm_time_s, reference, CandidateFilter, Comb, FlowBalance, GpuBalance,
    LeastFragmentation, NetPackConfig, NetPackPlacer, NetPackSession, OptimusLike, Placer,
    RandomPlacer, RunningJob, ServerStats, TetrisLike, WorkerDp,
};
use netpack_model::Placement;
use netpack_topology::{Cluster, ClusterSpec, JobId, ServerId};
use netpack_workload::{xorshift_batch, Job, ModelKind};
use proptest::prelude::*;

fn arb_cluster() -> impl Strategy<Value = Cluster> {
    (1usize..3, 2usize..6, 1usize..5).prop_map(|(racks, spr, gps)| {
        Cluster::new(ClusterSpec {
            racks,
            servers_per_rack: spr,
            gpus_per_server: gps,
            ..ClusterSpec::paper_default()
        })
    })
}

/// Random two- or three-tier fat-trees: 1–6 racks of mixed widths, with an
/// optional pod structure whose last pod may be ragged (racks not a
/// multiple of `racks_per_pod`).
fn arb_fat_tree() -> impl Strategy<Value = Cluster> {
    // rpp = 0 encodes "no pod structure" (two-tier); 1..4 declares pods,
    // with the last pod ragged whenever racks % rpp != 0.
    (1usize..7, 2usize..6, 1usize..5, 0usize..4).prop_map(|(racks, spr, gps, rpp)| {
        Cluster::new(ClusterSpec {
            racks,
            servers_per_rack: spr,
            gpus_per_server: gps,
            racks_per_pod: (rpp > 0).then_some(rpp),
            ..ClusterSpec::paper_default()
        })
    })
}

fn arb_batch(max_gpus: usize) -> impl Strategy<Value = Vec<Job>> {
    proptest::collection::vec((1usize..9, 1u64..5), 1..6).prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (gpus, value))| {
                Job::builder(JobId(i as u64), ModelKind::Vgg16, gpus.min(max_gpus.max(1)))
                    .value(value as f64)
                    .build()
            })
            .collect()
    })
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
        Box::new(RandomPlacer::new(11)),
    ]
}

/// The one production ≡ reference property (DESIGN.md §3.11): production
/// at 1, 2 and 4 placer workers (the per-plan scoring fan-out is the only
/// parallel region left) returns the literal algorithm's placements,
/// deferral ids and batch-objective bits.
fn check_against_reference(
    config: &NetPackConfig,
    cluster: &Cluster,
    running: &[RunningJob],
    batch: &[Job],
) -> Result<(), TestCaseError> {
    let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
    let oracle = reference::place_batch(config, cluster, running, batch);
    let oracle_obj = batch_comm_time_s(cluster, running, &oracle.placed);
    for threads in [1usize, 2, 4] {
        let mut placer = NetPackPlacer::new(NetPackConfig {
            threads: Some(threads),
            ..config.clone()
        });
        let out = placer.place_batch(cluster, running, batch);
        prop_assert_eq!(&out.placed, &oracle.placed, "threads={}", threads);
        prop_assert_eq!(ids(&out.deferred), ids(&oracle.deferred), "threads={}", threads);
        let obj = batch_comm_time_s(cluster, running, &out.placed);
        prop_assert_eq!(obj.to_bits(), oracle_obj.to_bits());
        prop_assert_eq!(placer.perf().counter("waterfill_unconverged"), 0);
    }
    Ok(())
}

/// Pinned inputs to the property: the four fig10 quick cells (servers in
/// {100, 400} x jobs in {50, 100}), a mixed batch exercising local jobs,
/// spanning jobs and deferral on a three-tier tree, gradient sharding
/// (`pses_per_job: 3`), and a dense cell — 2 racks x 64 servers, 60 jobs
/// around a running cross-rack job — where every plan rack holds dozens
/// of servers per PS class and the plan's own servers sit inside them.
#[test]
fn production_matches_reference_on_pinned_inputs() {
    let vgg = |id: u64, gpus: usize| Job::builder(JobId(id), ModelKind::Vgg16, gpus).build();
    let podded = |racks: usize| {
        Cluster::new(ClusterSpec {
            racks,
            servers_per_rack: 4,
            gpus_per_server: 4,
            racks_per_pod: Some(2),
            ..ClusterSpec::paper_default()
        })
    };
    let mut cases: Vec<(NetPackConfig, Cluster, Vec<RunningJob>, Vec<Job>)> = Vec::new();
    for servers in [100usize, 400] {
        for jobs in [50usize, 100] {
            let cluster = Cluster::new(ClusterSpec {
                racks: 16,
                servers_per_rack: servers / 16,
                ..ClusterSpec::paper_default()
            });
            cases.push((NetPackConfig::default(), cluster, vec![], xorshift_batch(jobs, 32, 7)));
        }
    }
    cases.push((
        NetPackConfig::default(),
        podded(6),
        vec![],
        vec![vgg(0, 4), vgg(1, 6), vgg(2, 13), vgg(3, 2), vgg(4, 9), vgg(5, 40)],
    ));
    cases.push((
        NetPackConfig {
            pses_per_job: 3,
            ..NetPackConfig::default()
        },
        podded(4),
        vec![],
        vec![vgg(0, 10), vgg(1, 7)],
    ));
    let mut dense = Cluster::new(ClusterSpec {
        racks: 2,
        servers_per_rack: 64,
        oversubscription: 16.0,
        ..ClusterSpec::paper_default()
    });
    let running = RunningJob {
        id: JobId(1_000),
        gradient_gbits: 4.0,
        placement: Placement::new(vec![(ServerId(3), 2), (ServerId(70), 2)], Some(ServerId(5))),
    };
    for &(s, w) in running.placement.workers() {
        dense.allocate_gpus(s, w).unwrap();
    }
    cases.push((NetPackConfig::default(), dense, vec![running], xorshift_batch(60, 32, 7)));
    for (config, cluster, running, batch) in &cases {
        check_against_reference(config, cluster, running, batch)
            .unwrap_or_else(|e| panic!("{} servers, {} jobs: {e:?}", cluster.num_servers(), batch.len()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every placement any placer emits validates against the cluster, and
    /// the batch GPU ledger is never over-committed.
    #[test]
    fn placements_are_always_valid(
        (cluster, batch) in arb_cluster().prop_flat_map(|c| {
            let total = c.total_gpus();
            (Just(c), arb_batch(total))
        })
    ) {
        for mut placer in all_placers() {
            let outcome = placer.place_batch(&cluster, &[], &batch);
            let mut scratch = cluster.clone();
            for (job, placement) in &outcome.placed {
                placement
                    .validate(&scratch, job.gpus)
                    .unwrap_or_else(|e| panic!("{}: invalid placement: {e}", placer.name()));
                for &(s, w) in placement.workers() {
                    scratch.allocate_gpus(s, w).expect("ledger over-commit");
                }
            }
            // Every batch job is either placed or deferred, exactly once.
            prop_assert_eq!(
                outcome.placed.len() + outcome.deferred.len(),
                batch.len(),
                "{} lost a job",
                placer.name()
            );
        }
    }
}

proptest! {
    // 100 seeded instances: the acceptance count for the production ≡
    // reference sweep (DESIGN.md §3.11).
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Production must be **bit-identical** to the literal Algorithm 2
    /// across random fat-trees — two-tier (no pod structure) and three-tier
    /// with mixed/ragged pod sizes — with a running job in the way, and its
    /// warm session must keep its server index equal to a full scan and
    /// its steady state equal to a from-scratch estimate.
    #[test]
    fn production_matches_reference(
        (cluster, batch, seed) in arb_fat_tree().prop_flat_map(|c| {
            let total = c.total_gpus();
            (Just(c), arb_batch(total), any::<u64>())
        })
    ) {
        // A pre-existing running job (when it fits) exercises the
        // running-jobs path of both implementations.
        let mut scratch = cluster.clone();
        let mut running: Vec<RunningJob> = Vec::new();
        if cluster.num_servers() >= 3 {
            let w1 = ServerId(seed as usize % cluster.num_servers());
            let w2 = ServerId((seed as usize + 1) % cluster.num_servers());
            let ps = ServerId((seed as usize + 2) % cluster.num_servers());
            if w1 != w2 && scratch.allocate_gpus(w1, 1).is_ok()
                && scratch.allocate_gpus(w2, 1).is_ok()
            {
                running.push(RunningJob {
                    id: JobId(1_000),
                    gradient_gbits: 4.0,
                    placement: Placement::new(vec![(w1, 1), (w2, 1)], Some(ps)),
                });
            }
        }
        check_against_reference(&NetPackConfig::default(), &scratch, &running, &batch)?;

        // The same batch through a warm session at each worker count: its
        // persistent server index must equal a full scan after the pass,
        // after completions, and after the pass that follows.
        for threads in [1usize, 2, 4] {
            let config = NetPackConfig {
                threads: Some(threads),
                ..NetPackConfig::default()
            };
            let mut session = NetPackSession::new(cluster.clone(), config);
            let first = session.place_batch(&batch);
            prop_assert_eq!(session.audit_index(), Ok(()));
            prop_assert_eq!(session.audit_state(), Ok(()));
            for (job, _) in first.placed.iter().step_by(2) {
                prop_assert!(session.complete(job.id).is_ok());
            }
            prop_assert_eq!(session.audit_index(), Ok(()));
            // The completions are staged; the next pass settles them all
            // at once and must land on the from-scratch state.
            session.place_batch(&first.deferred);
            prop_assert_eq!(session.audit_index(), Ok(()));
            prop_assert_eq!(session.audit_state(), Ok(()));
        }
    }

    /// The candidate filter's kept set must not depend on offer order:
    /// production offers servers class by class out of its server index,
    /// the reference in global id order, and both must keep the same
    /// candidates (value-desc, id-asc within a class, ties included).
    #[test]
    fn candidate_filter_ignores_insertion_order(
        stats in proptest::collection::vec((1usize..5, 0u32..6, 0usize..4), 1..40),
        demand in 1usize..12,
        seed in any::<u64>(),
    ) {
        // Deliberately coarse value grid so equal values collide often and
        // the (value desc, id asc) tie-break is what keeps the set stable.
        let servers: Vec<ServerStats> = stats
            .iter()
            .enumerate()
            .map(|(i, &(gpus, flows, value_step))| ServerStats {
                id: ServerId(i),
                gpus_free: gpus,
                value: value_step as f64 * 0.25,
                flows,
            })
            .collect();
        let mut shuffled = servers.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }

        let mut a = CandidateFilter::new(4, demand, 4, Some(3));
        let mut b = CandidateFilter::new(4, demand, 4, Some(3));
        for s in &servers {
            a.offer(*s);
        }
        for s in &shuffled {
            b.offer(*s);
        }
        prop_assert_eq!(a.candidates(), b.candidates());
        prop_assert_eq!(a.offered(), b.offered());
        prop_assert_eq!(a.kept(), b.kept());
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The per-job PS class table follows the server index wherever churn
    /// leaves it. A warm session on an oversubscribed 8-rack cluster (so
    /// the rack a PS sits in moves its score) places seeded batches and
    /// completes a seeded half of what runs, round after round — PS keys
    /// re-keyed in and out, dead classes, classes spanning racks are
    /// whatever that leaves — and then places jobs one at a time: each
    /// must land exactly where the literal algorithm puts it on a cluster
    /// holding the same running set, at one and four placer workers, with
    /// one and two PSes a job.
    #[test]
    fn placement_after_churn_matches_reference(seed in any::<u64>()) {
        let cluster = Cluster::new(ClusterSpec {
            racks: 24,
            servers_per_rack: 6,
            gpus_per_server: 4,
            oversubscription: 8.0,
            ..ClusterSpec::paper_default()
        });
        for (threads, pses_per_job) in [(1usize, 1usize), (4, 1), (1, 2), (4, 2)] {
            let config = NetPackConfig {
                threads: Some(threads),
                pses_per_job,
                ..NetPackConfig::default()
            };
            let mut state = seed | 1;
            let mut below = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let mut next_id = 0u64;
            let mut job = |gpus: u64| {
                next_id += 1;
                Job::builder(JobId(next_id), ModelKind::Vgg16, gpus as usize).build()
            };
            let mut session = NetPackSession::new(cluster.clone(), config.clone());
            for _ in 0..5 {
                let batch: Vec<Job> = (0..12).map(|_| job(1 + below(14))).collect();
                session.place_batch(&batch);
                let done: Vec<JobId> = session
                    .running()
                    .iter()
                    .filter(|_| below(2) == 0)
                    .map(|r| r.id)
                    .collect();
                for id in done {
                    prop_assert!(session.complete(id).is_ok());
                }
            }
            for _ in 0..6 {
                let job = job(1 + below(32));
                let running = session.running().to_vec();
                let mut held = cluster.clone();
                for r in &running {
                    for &(s, w) in r.placement.workers() {
                        held.allocate_gpus(s, w).expect("the session over-committed");
                    }
                }
                let oracle = reference::place_batch(&config, &held, &running, std::slice::from_ref(&job));
                let out = session.place_batch(std::slice::from_ref(&job));
                prop_assert_eq!(&out.placed, &oracle.placed, "threads={} pses={}", threads, pses_per_job);
                prop_assert_eq!(out.deferred.len(), oracle.deferred.len());
                prop_assert_eq!(session.audit_index(), Ok(()));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The DP's best exact-demand plan is at least as valuable as any
    /// greedy value-descending plan.
    #[test]
    fn dp_beats_greedy_on_value(
        stats in proptest::collection::vec(
            (1usize..5, -10.0f64..50.0, 0u32..10), 1..10),
        demand in 1usize..12,
    ) {
        let servers: Vec<ServerStats> = stats
            .iter()
            .enumerate()
            .map(|(i, &(gpus, value, flows))| ServerStats {
                id: ServerId(i),
                gpus_free: gpus,
                value,
                flows,
            })
            .collect();
        let slack = 4;
        let plans = WorkerDp::new(16).plans(&servers, demand, slack);
        // Greedy: take servers by value desc until demand covered.
        let mut by_value: Vec<&ServerStats> = servers.iter().collect();
        by_value.sort_by(|a, b| b.value.total_cmp(&a.value));
        let mut greedy_gpus = 0;
        let mut greedy_value = 0.0;
        for s in by_value {
            if greedy_gpus >= demand {
                break;
            }
            greedy_gpus += s.gpus_free;
            greedy_value += s.value;
        }
        if greedy_gpus >= demand && greedy_gpus <= demand + slack {
            let best = plans
                .iter()
                .filter(|p| p.gpus >= demand)
                .map(|p| p.value)
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(
                best >= greedy_value - 1e-9,
                "dp {best} < greedy {greedy_value}"
            );
        }
    }
}
