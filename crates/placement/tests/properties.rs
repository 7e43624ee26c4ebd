//! Property tests: every placer only ever proposes valid placements, and
//! NetPack's DP never loses to a greedy plan on the same server values.

use netpack_placement::{
    batch_comm_time_s, BatchMode, CandidateFilter, Comb, FlowBalance, GpuBalance,
    LeastFragmentation, NetPackConfig, NetPackPlacer, NetPackSession, OptimusLike, Placer,
    RandomPlacer, RunningJob, ScoringMode, ServerStats, TetrisLike, TopoMode, WorkerDp,
};
use netpack_model::Placement;
use netpack_topology::{Cluster, ClusterSpec, JobId, ServerId};
use netpack_workload::{Job, ModelKind};
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
/// multiple of `racks_per_pod`) — the shapes the flat path shards by pod.
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

/// Acceptance pin for DESIGN.md §3.11: on every existing fig10 quick cell
/// (servers in {100, 400} x jobs in {50, 100}, same spec and deterministic
/// batch generator as the `fig10_placement_time` binary), the flat and
/// struct topology modes place bit-identical batches.
#[test]
fn fig10_quick_cells_agree_across_topo_modes() {
    let batch = |jobs: usize, max_gpus: usize, seed: u64| -> Vec<Job> {
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
                let model = netpack_workload::ModelKind::ALL[(next() % 6) as usize];
                Job::builder(JobId(i as u64), model, gpus).build()
            })
            .collect()
    };
    for servers in [100usize, 400] {
        let racks = 16.min(servers);
        let spec = ClusterSpec {
            racks,
            servers_per_rack: servers / racks,
            ..ClusterSpec::paper_default()
        };
        for jobs in [50usize, 100] {
            let cluster = Cluster::new(spec.clone());
            let b = batch(jobs, 32, 7);
            let mut flat = NetPackPlacer::new(NetPackConfig {
                topo: TopoMode::Flat,
                ..NetPackConfig::default()
            });
            let mut strct = NetPackPlacer::new(NetPackConfig {
                topo: TopoMode::Struct,
                ..NetPackConfig::default()
            });
            let out_flat = flat.place_batch(&cluster, &[], &b);
            let out_strct = strct.place_batch(&cluster, &[], &b);
            assert_eq!(
                out_flat.placed, out_strct.placed,
                "cell servers={servers}/jobs={jobs} diverged"
            );
            let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
            assert_eq!(ids(&out_flat.deferred), ids(&out_strct.deferred));
        }
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

    /// The fast scorer (incremental water-filling, hot-spot memoization,
    /// threaded plan evaluation) must produce **bit-identical** batches to
    /// the sequential reference scorer: the same jobs placed, byte-equal
    /// `Placement`s (workers, PS servers, INA flags), and the same jobs
    /// deferred — across random clusters, batches, and running jobs.
    #[test]
    fn fast_and_sequential_scoring_agree(
        (cluster, batch, seed) in arb_cluster().prop_flat_map(|c| {
            let total = c.total_gpus();
            (Just(c), arb_batch(total), any::<u64>())
        })
    ) {
        // A deterministic pre-existing job, when it fits, exercises the
        // running-jobs path of both scorers.
        let mut scratch = cluster.clone();
        let mut running: Vec<RunningJob> = Vec::new();
        if cluster.num_servers() >= 3 && cluster.spec().gpus_per_server >= 1 {
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

        let mut fast = NetPackPlacer::new(NetPackConfig {
            scoring: ScoringMode::Fast,
            ..NetPackConfig::default()
        });
        let mut sequential = NetPackPlacer::new(NetPackConfig {
            scoring: ScoringMode::Sequential,
            ..NetPackConfig::default()
        });
        let out_fast = fast.place_batch(&scratch, &running, &batch);
        let out_seq = sequential.place_batch(&scratch, &running, &batch);

        prop_assert_eq!(out_fast.placed.len(), out_seq.placed.len());
        for ((jf, pf), (js, ps)) in out_fast.placed.iter().zip(&out_seq.placed) {
            prop_assert_eq!(jf.id, js.id);
            prop_assert_eq!(pf, ps, "placements diverged for {:?}", jf.id);
        }
        let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
        prop_assert_eq!(ids(&out_fast.deferred), ids(&out_seq.deferred));
    }

}

proptest! {
    // 100 seeded instances: the acceptance count for the flat-topology
    // equivalence sweep (DESIGN.md §3.11).
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// The flat indexed-topology placement path (DESIGN.md §3.11) must be
    /// **bit-identical** to the struct reference across random fat-trees —
    /// two-tier (no pod structure) and three-tier with mixed/ragged pod
    /// sizes — on both the placements and the batch objective.
    #[test]
    fn flat_and_struct_topo_agree(
        (cluster, batch, seed) in arb_fat_tree().prop_flat_map(|c| {
            let total = c.total_gpus();
            (Just(c), arb_batch(total), any::<u64>())
        })
    ) {
        // A pre-existing running job (when it fits) exercises the
        // running-jobs path of both topology modes.
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

        for scoring in [ScoringMode::Fast, ScoringMode::Sequential] {
            let mut flat = NetPackPlacer::new(NetPackConfig {
                topo: TopoMode::Flat,
                scoring,
                ..NetPackConfig::default()
            });
            let mut strct = NetPackPlacer::new(NetPackConfig {
                topo: TopoMode::Struct,
                scoring,
                ..NetPackConfig::default()
            });
            let out_flat = flat.place_batch(&scratch, &running, &batch);
            let out_strct = strct.place_batch(&scratch, &running, &batch);

            prop_assert_eq!(out_flat.placed.len(), out_strct.placed.len());
            for ((jf, pf), (js, ps)) in out_flat.placed.iter().zip(&out_strct.placed) {
                prop_assert_eq!(jf.id, js.id);
                prop_assert_eq!(pf, ps, "placements diverged for {:?} ({:?})", jf.id, scoring);
            }
            let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
            prop_assert_eq!(ids(&out_flat.deferred), ids(&out_strct.deferred));

            let obj_flat = batch_comm_time_s(&scratch, &running, &out_flat.placed);
            let obj_strct = batch_comm_time_s(&scratch, &running, &out_strct.placed);
            prop_assert_eq!(obj_flat.to_bits(), obj_strct.to_bits());
        }
    }

    /// The candidate filter's kept set must not depend on offer order: the
    /// flat path offers servers class by class out of its server index,
    /// the struct path in global id order, and both must keep the same
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

/// Speculation-conflict stress: one heavily loaded rack, many equal-value
/// small jobs. Every speculated job targets the same least-loaded servers,
/// so commits invalidate the speculations behind them round after round —
/// the worst case for the conflict/re-score protocol (DESIGN.md §3.13).
#[test]
fn speculative_batching_survives_same_rack_conflicts() {
    let cluster = Cluster::new(ClusterSpec {
        racks: 1,
        servers_per_rack: 8,
        gpus_per_server: 4,
        ..ClusterSpec::paper_default()
    });
    // 40 jobs over 32 GPUs: the tail is deferred, covering the
    // deferral-while-stale commit path too.
    let batch: Vec<Job> = (0..40)
        .map(|i| Job::builder(JobId(i), ModelKind::Vgg16, 1 + (i as usize % 2)).build())
        .collect();
    let reference = NetPackPlacer::new(NetPackConfig {
        topo: TopoMode::Flat,
        batch: BatchMode::Seq,
        ..NetPackConfig::default()
    })
    .place_batch(&cluster, &[], &batch);
    for threads in [2usize, 4] {
        let mut placer = NetPackPlacer::new(NetPackConfig {
            topo: TopoMode::Flat,
            batch: BatchMode::Spec,
            threads: Some(threads),
            ..NetPackConfig::default()
        });
        let out = placer.place_batch(&cluster, &[], &batch);
        assert_eq!(out.placed, reference.placed, "threads={threads}");
        let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
        assert_eq!(ids(&out.deferred), ids(&reference.deferred));
        // The protocol must actually have speculated here (wide windows),
        // not silently degenerated to the sequential loop.
        assert!(
            placer.perf().counter("spec_rounds") > 0,
            "spec engine never ran a round at threads={threads}"
        );
    }
}

proptest! {
    // 100 seeded instances: the acceptance count for the speculative-batch
    // equivalence sweep (DESIGN.md §3.13).
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// The speculative parallel batch engine (`NETPACK_BATCH=spec`,
    /// DESIGN.md §3.13) must be **bit-identical** to the sequential commit
    /// loop across random fat-trees and worker counts {1, 2, 4}: the same
    /// jobs placed with byte-equal `Placement`s, the same deferrals, and
    /// the same batch-objective bits.
    #[test]
    fn speculative_and_sequential_batching_agree(
        (cluster, batch) in arb_fat_tree().prop_flat_map(|c| {
            let total = c.total_gpus();
            (Just(c), arb_batch(total))
        })
    ) {
        let reference = NetPackPlacer::new(NetPackConfig {
            topo: TopoMode::Flat,
            batch: BatchMode::Seq,
            ..NetPackConfig::default()
        })
        .place_batch(&cluster, &[], &batch);
        let obj_ref = batch_comm_time_s(&cluster, &[], &reference.placed);
        for threads in [1usize, 2, 4] {
            let mut spec = NetPackPlacer::new(NetPackConfig {
                topo: TopoMode::Flat,
                batch: BatchMode::Spec,
                threads: Some(threads),
                ..NetPackConfig::default()
            });
            let out = spec.place_batch(&cluster, &[], &batch);
            prop_assert_eq!(out.placed.len(), reference.placed.len());
            for ((jf, pf), (js, ps)) in out.placed.iter().zip(&reference.placed) {
                prop_assert_eq!(jf.id, js.id);
                prop_assert_eq!(pf, ps, "placements diverged for {:?} at threads={}", jf.id, threads);
            }
            let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
            prop_assert_eq!(ids(&out.deferred), ids(&reference.deferred));
            let obj = batch_comm_time_s(&cluster, &[], &out.placed);
            prop_assert_eq!(obj.to_bits(), obj_ref.to_bits());

            // The same batch through a warm session at this worker count:
            // its persistent server index (and, under debug assertions,
            // every speculation fork's) must equal a full scan after the
            // pass, after completions, and after the pass that follows.
            let mut session = NetPackSession::new(cluster.clone(), spec.config().clone());
            let first = session.place_batch(&batch);
            prop_assert_eq!(session.audit_index(), Ok(()));
            for (job, _) in first.placed.iter().step_by(2) {
                prop_assert!(session.complete(job.id).is_ok());
            }
            prop_assert_eq!(session.audit_index(), Ok(()));
            session.place_batch(&first.deferred);
            prop_assert_eq!(session.audit_index(), Ok(()));
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
