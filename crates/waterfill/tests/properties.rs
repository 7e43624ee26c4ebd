//! Property-based tests for the water-filling estimator's invariants.

use netpack_model::Placement;
use netpack_topology::{Cluster, ClusterSpec, JobId, LinkId, RackId, ServerId};
use netpack_waterfill::{estimate, IncrementalEstimator, PlacedJob, SteadyState, EPSILON_GBPS};
use proptest::prelude::*;

mod packed;

/// Exact (`==` on floats) comparison of a warm incremental state against a
/// from-scratch solve over `jobs` — the bit-identity contract.
fn assert_bitwise_match(
    cluster: &Cluster,
    inc: &SteadyState,
    scratch: &SteadyState,
    jobs: &[PlacedJob],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(inc.num_jobs(), scratch.num_jobs());
    for job in jobs {
        prop_assert_eq!(
            inc.job_rate_gbps(job.id()),
            scratch.job_rate_gbps(job.id()),
            "rate diverged for {}",
            job.id()
        );
        prop_assert_eq!(inc.job_shards(job.id()), scratch.job_shards(job.id()));
    }
    for l in 0..cluster.num_links() {
        let link = LinkId::from_index(l, cluster);
        prop_assert_eq!(
            inc.link_residual_gbps(link, cluster),
            scratch.link_residual_gbps(link, cluster)
        );
        prop_assert_eq!(
            inc.link_flows(link, cluster),
            scratch.link_flows(link, cluster)
        );
    }
    for r in 0..cluster.num_racks() {
        prop_assert_eq!(
            inc.pat_residual_gbps(RackId(r)),
            scratch.pat_residual_gbps(RackId(r))
        );
    }
    Ok(())
}

/// Generate a random small cluster spec.
fn arb_cluster() -> impl Strategy<Value = Cluster> {
    (1usize..4, 2usize..6, 1usize..5, 0u32..3, 1u32..5).prop_map(
        |(racks, spr, gps, pat_scale, oversub)| {
            Cluster::new(ClusterSpec {
                racks,
                servers_per_rack: spr,
                gpus_per_server: gps,
                server_link_gbps: 100.0,
                pat_gbps: 50.0 * pat_scale as f64,
                oversubscription: oversub as f64,
                rtt_us: 50.0,
                racks_per_pod: None,
            })
        },
    )
}

/// Generate random placements onto a given cluster (may be local or
/// distributed, INA on or off).
fn arb_jobs(cluster: &Cluster) -> impl Strategy<Value = Vec<PlacedJob>> {
    let ns = cluster.num_servers();
    let cluster = cluster.clone();
    let job = (
        proptest::collection::btree_map(0..ns, 1usize..4, 1..4.min(ns + 1)),
        0..ns,
        any::<bool>(),
    );
    proptest::collection::vec(job, 1..8).prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (workers, ps, ina))| {
                let workers: Vec<(ServerId, usize)> =
                    workers.into_iter().map(|(s, w)| (ServerId(s), w)).collect();
                let mut p = Placement::new(workers, Some(ServerId(ps)));
                p.set_ina_enabled(ina);
                PlacedJob::new(JobId(i as u64), &cluster, &p)
            })
            .collect()
    })
}

/// Clusters whose PAT pools range from absent through "runs dry while jobs
/// are still filling" to "never binds", with oversubscribed uplinks.
fn arb_pat_cluster() -> impl Strategy<Value = Cluster> {
    (1usize..4, 2usize..6, 0usize..6, 1u32..5).prop_map(|(racks, spr, pat, oversub)| {
        Cluster::new(ClusterSpec {
            racks,
            servers_per_rack: spr,
            gpus_per_server: 4,
            server_link_gbps: 100.0,
            pat_gbps: [0.0, 5.0, 20.0, 50.0, 100.0, 1000.0][pat],
            oversubscription: oversub as f64,
            rtt_us: 50.0,
            racks_per_pod: None,
        })
    })
}

/// Like [`arb_jobs`], with one to three PSes per job (sharded trees).
fn arb_sharded_jobs(cluster: &Cluster) -> impl Strategy<Value = Vec<PlacedJob>> {
    let ns = cluster.num_servers();
    let cluster = cluster.clone();
    let job = (
        proptest::collection::btree_map(0..ns, 1usize..4, 1..4.min(ns + 1)),
        proptest::collection::vec(0..ns, 1..4),
        any::<bool>(),
    );
    proptest::collection::vec(job, 1..10).prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (workers, pses, ina))| {
                let workers = workers.into_iter().map(|(s, w)| (ServerId(s), w)).collect();
                let mut p =
                    Placement::new_sharded(workers, pses.into_iter().map(ServerId).collect());
                p.set_ina_enabled(ina);
                PlacedJob::new(JobId(i as u64), &cluster, &p)
            })
            .collect()
    })
}

/// Placements for jobs assigned ids as they are pushed: one in four local
/// (one server, no PS), the rest as [`arb_sharded_jobs`] draws them.
fn arb_mixed_placements(cluster: &Cluster) -> impl Strategy<Value = Vec<Placement>> {
    let ns = cluster.num_servers();
    let job = (
        proptest::collection::btree_map(0..ns, 1usize..4, 1..4.min(ns + 1)),
        proptest::collection::vec(0..ns, 1..4),
        any::<bool>(),
        0u8..4,
    );
    proptest::collection::vec(job, 2..14).prop_map(|raw| {
        raw.into_iter()
            .map(|(workers, pses, ina, local)| {
                let workers: Vec<(ServerId, usize)> =
                    workers.into_iter().map(|(s, w)| (ServerId(s), w)).collect();
                if local == 0 {
                    return Placement::local(workers[0].0, workers[0].1);
                }
                let mut p =
                    Placement::new_sharded(workers, pses.into_iter().map(ServerId).collect());
                p.set_ina_enabled(ina);
                p
            })
            .collect()
    })
}

/// Algorithm 1's fixed point, checked from the converged rates alone.
///
/// While a job is unfrozen its rate *is* the water level, so rack `r`'s
/// pool runs dry at one level `rho_r` and a job with final rate `x`
/// aggregated there over `[0, min(x, rho_r))`. That fixes, without
/// replaying any round, what every job drew from every pool and every
/// link; the state must account for exactly that (feasibility: nothing
/// over capacity, residual = capacity - draw), and every network job must
/// cross a saturated link on which nobody runs faster (max-min: raising
/// it would take from a job that is no better off).
fn check_two_resource_max_min(
    cluster: &Cluster,
    jobs: &[PlacedJob],
    state: &SteadyState,
) -> Result<(), TestCaseError> {
    const TOL: f64 = 1e-6;
    let network: Vec<(&PlacedJob, f64)> = jobs
        .iter()
        .filter(|j| j.is_network())
        .map(|j| (j, state.job_rate_gbps(j.id()).expect("rate for every job")))
        .collect();
    let top = network.iter().map(|&(_, x)| x).fold(0.0, f64::max);
    // Draw on rack r's pool if it ran dry at level `rho`.
    let pool_draw = |r: usize, rho: f64| -> f64 {
        network
            .iter()
            .flat_map(|&(j, x)| j.components().iter().map(move |h| (h, x)))
            .filter(|(h, _)| h.ina_enabled())
            .map(|(h, x)| {
                let here = h.switches().iter().filter(|s| s.0 == r).count();
                here as f64 * x.min(rho)
            })
            .sum()
    };
    let mut rho = vec![f64::INFINITY; cluster.num_racks()];
    for (r, level) in rho.iter_mut().enumerate() {
        let pat = cluster.racks()[r].pat_gbps();
        let left = state.pat_residual_gbps(RackId(r));
        prop_assert!(
            (0.0..=pat + TOL).contains(&left),
            "pool {r} residual {left}"
        );
        if state.rack_aggregating(RackId(r)) {
            let draw = pool_draw(r, f64::INFINITY);
            prop_assert!(
                (pat - draw - left).abs() <= TOL,
                "pool {r}: {pat} - {draw} != {left}"
            );
            continue;
        }
        // Dry: the level at which the draw reached the pool, by bisection
        // (the draw is continuous and non-decreasing in the level).
        prop_assert!(
            pool_draw(r, top) >= pat - TOL,
            "pool {r} reads dry but was not drawn down"
        );
        let (mut lo, mut hi) = (0.0, top);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if pool_draw(r, mid) < pat - 1e-9 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        *level = hi;
    }
    // Per-link draw: integrate each tree's flow count over the level,
    // piecewise between the dry-up levels of its own switches.
    let mut draw = vec![0.0; cluster.num_links()];
    for &(job, x) in &network {
        for h in job.components() {
            let mut cuts: Vec<f64> = h
                .switches()
                .iter()
                .map(|s| rho[s.0])
                .filter(|&c| c < x)
                .collect();
            cuts.push(x);
            cuts.sort_by(f64::total_cmp);
            let mut from = 0.0;
            for to in cuts {
                if to > from {
                    let mid = 0.5 * (from + to);
                    for (l, f) in h.link_flows(|r| mid < rho[r.0]) {
                        draw[l.index(cluster)] += f64::from(f) * (to - from);
                    }
                    from = to;
                }
            }
        }
    }
    for (l, &used) in draw.iter().enumerate() {
        let link = LinkId::from_index(l, cluster);
        let cap = link.capacity_gbps(cluster);
        let left = state.link_residual_gbps(link, cluster);
        prop_assert!(used <= cap + TOL, "{link} over capacity: {used} > {cap}");
        prop_assert!(
            (cap - used - left).abs() <= TOL,
            "{link}: {cap} - {used} != {left}"
        );
    }
    for &(job, x) in &network {
        let bottlenecked = job.components().iter().any(|h| {
            h.link_flows(|r| state.rack_aggregating(r))
                .iter()
                .any(|&(l, _)| {
                    let crossers_no_faster = network.iter().all(|&(other, y)| {
                        let crosses = other
                            .components()
                            .iter()
                            .any(|oh| oh.link_flows(|_| false).iter().any(|&(ol, _)| ol == l));
                        !crosses || y <= x + TOL
                    });
                    state.link_residual_gbps(l, cluster) <= TOL && crossers_no_faster
                })
        });
        prop_assert!(bottlenecked, "job {} could still rise", job.id());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The paper-level statement of Algorithm 1 (ROADMAP item 4d): the
    /// estimate is feasible on every link and PAT pool and max-min fair,
    /// on components with PAT flips, colocated and sharded PSes and
    /// multi-rack jobs — and the warm estimator, fed the same jobs one by
    /// one, reports that no solve ran out of rounds.
    #[test]
    fn estimate_is_the_two_resource_max_min_fixed_point(
        (cluster, jobs) in arb_pat_cluster().prop_flat_map(|c| {
            let jobs = arb_sharded_jobs(&c);
            (Just(c), jobs)
        })
    ) {
        check_two_resource_max_min(&cluster, &jobs, &estimate(&cluster, &jobs))?;
        let mut inc = IncrementalEstimator::new(&cluster, &[]);
        for job in &jobs {
            inc.push(&cluster, job.clone());
        }
        check_two_resource_max_min(&cluster, &jobs, inc.state())?;
        prop_assert_eq!(inc.stats().unconverged, 0);
        prop_assert!(inc.stats().rounds >= inc.stats().components_solved);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Residual bandwidth and PAT never go negative, and every job gets a
    /// finite non-negative rate (or infinite for local jobs).
    #[test]
    fn residuals_and_rates_are_well_formed(
        (cluster, jobs) in arb_cluster().prop_flat_map(|c| {
            let jobs = arb_jobs(&c);
            (Just(c), jobs)
        })
    ) {
        let state = estimate(&cluster, &jobs);
        for l in 0..cluster.num_links() {
            let link = LinkId::from_index(l, &cluster);
            let res = state.link_residual_gbps(link, &cluster);
            prop_assert!(res >= 0.0, "negative residual {res} on {link}");
            prop_assert!(res <= link.capacity_gbps(&cluster) + 1e-6);
        }
        for r in 0..cluster.num_racks() {
            let res = state.pat_residual_gbps(RackId(r));
            prop_assert!(res >= 0.0);
            prop_assert!(res <= cluster.spec().pat_gbps + 1e-6);
        }
        for job in &jobs {
            let rate = state.job_rate_gbps(job.id()).expect("rate for every job");
            if job.hierarchy().is_none() {
                prop_assert!(rate.is_infinite());
            } else {
                prop_assert!(rate.is_finite() && rate >= 0.0);
            }
        }
    }

    /// Max-min certificate: every network job crosses at least one
    /// saturated link in the converged state (otherwise its rate could
    /// still grow, contradicting max-min fairness).
    #[test]
    fn every_network_job_is_bottlenecked(
        (cluster, jobs) in arb_cluster().prop_flat_map(|c| {
            let jobs = arb_jobs(&c);
            (Just(c), jobs)
        })
    ) {
        let state = estimate(&cluster, &jobs);
        for job in &jobs {
            if let Some(h) = job.hierarchy() {
                let flows = h.link_flows(|r| state.rack_aggregating(r));
                let bottlenecked = flows.iter().any(|&(l, f)| {
                    f > 0 && state.link_residual_gbps(l, &cluster) <= 1e-6
                });
                prop_assert!(bottlenecked, "job {} has slack everywhere", job.id());
            }
        }
    }

    /// A job running alone gets at least the rate it gets in any crowd
    /// (competitors only consume bandwidth and PAT). Note that *pairwise*
    /// monotonicity does not hold for max-min fairness: adding a job can
    /// freeze one competitor earlier and thereby raise a third job's share.
    #[test]
    fn solo_rate_upper_bounds_shared_rate(
        (cluster, jobs) in arb_cluster().prop_flat_map(|c| {
            let jobs = arb_jobs(&c);
            (Just(c), jobs)
        })
    ) {
        let shared = estimate(&cluster, &jobs);
        for job in &jobs {
            let solo = estimate(&cluster, std::slice::from_ref(job));
            let rs = shared.job_rate_gbps(job.id()).unwrap();
            let ra = solo.job_rate_gbps(job.id()).unwrap();
            if ra.is_finite() {
                prop_assert!(rs <= ra + 1e-6, "job {} shared {rs} > solo {ra}", job.id());
            }
        }
    }

    /// The incremental estimator is *bit-identical* to a from-scratch
    /// solve after every push, at every prefix of the job list — the
    /// correctness anchor of the placement-time fast path. Exact `==` on
    /// floats is deliberate: the incremental path must replay the very
    /// same component solves, not merely approximate them.
    #[test]
    fn incremental_push_matches_from_scratch_estimate(
        (cluster, jobs) in arb_cluster().prop_flat_map(|c| {
            let jobs = arb_jobs(&c);
            (Just(c), jobs)
        })
    ) {
        let mut inc = IncrementalEstimator::new(&cluster, &[]);
        for k in 1..=jobs.len() {
            inc.push(&cluster, jobs[k - 1].clone());
            let scratch = estimate(&cluster, &jobs[..k]);
            for job in &jobs[..k] {
                prop_assert_eq!(
                    inc.state().job_rate_gbps(job.id()),
                    scratch.job_rate_gbps(job.id()),
                    "rate diverged for {} after {} pushes", job.id(), k
                );
                prop_assert_eq!(
                    inc.state().job_shards(job.id()),
                    scratch.job_shards(job.id())
                );
            }
            for l in 0..cluster.num_links() {
                let link = LinkId::from_index(l, &cluster);
                prop_assert_eq!(
                    inc.state().link_residual_gbps(link, &cluster),
                    scratch.link_residual_gbps(link, &cluster)
                );
                prop_assert_eq!(
                    inc.state().link_flows(link, &cluster),
                    scratch.link_flows(link, &cluster)
                );
            }
            for r in 0..cluster.num_racks() {
                prop_assert_eq!(
                    inc.state().pat_residual_gbps(RackId(r)),
                    scratch.pat_residual_gbps(RackId(r))
                );
            }
        }
        // The cache never does more water-filling work than from-scratch
        // solving at every prefix would (and usually does much less).
        let scratch_work: u64 = (1..=jobs.len() as u64).sum();
        prop_assert!(inc.stats().jobs_resolved <= scratch_work);
        prop_assert_eq!(inc.stats().unconverged, 0);
    }

    /// Interleaved add/remove sequences keep the warm estimator
    /// bit-identical to a from-scratch solve over the surviving jobs —
    /// the contract the simulator's event loop relies on, where arrivals
    /// and completions alternate in arbitrary order. The op stream is
    /// driven by random words: even words push the next unseen job (when
    /// any remain), odd words remove a random live one.
    #[test]
    fn incremental_interleaved_ops_match_from_scratch(
        ((cluster, jobs), ops) in arb_cluster().prop_flat_map(|c| {
            let jobs = arb_jobs(&c);
            (Just(c), jobs)
        }).prop_flat_map(|(c, jobs)| {
            let n = jobs.len();
            let ops = proptest::collection::vec(any::<u32>(), 2 * n);
            (Just((c, jobs)), ops)
        })
    ) {
        let mut inc = IncrementalEstimator::new(&cluster, &[]);
        let mut live: Vec<PlacedJob> = Vec::new();
        let mut next = 0usize;
        for &word in &ops {
            let push = word % 2 == 0 && next < jobs.len();
            if push {
                let job = jobs[next].clone();
                next += 1;
                live.push(job.clone());
                inc.push(&cluster, job);
            } else if !live.is_empty() {
                let victim = (word as usize / 2) % live.len();
                let id = live.remove(victim).id();
                prop_assert!(inc.remove(&cluster, id));
            } else if next < jobs.len() {
                // Nothing to remove yet: push instead so the op is not wasted.
                let job = jobs[next].clone();
                next += 1;
                live.push(job.clone());
                inc.push(&cluster, job);
            } else {
                continue;
            }
            let scratch = estimate(&cluster, &live);
            assert_bitwise_match(&cluster, inc.state(), &scratch, &live)?;
        }
        prop_assert_eq!(inc.stats().unconverged, 0);
    }

    /// Stage/settle is history-free: over a random interleaving of staged
    /// and eager pushes, removals and pops, with settles at random points,
    /// every settled state is bit-identical to a from-scratch solve over
    /// the surviving jobs *and* to the same ops run eagerly one by one —
    /// and between two settles each estimator journals every link whose
    /// residual or flow count moved, the eager one no link the staged one
    /// does not (an eager push a settle absorbs journals its own links, the
    /// staged window's solve the whole component). PAT
    /// from absent through "dries up mid-fill" to "never binds"; jobs span
    /// racks (so removals split components) and are popped or removed in
    /// the window they were staged in. Per word: bits 0-1 pick the op
    /// (push twice as likely), bit 2 stages it or runs it eagerly, and a
    /// staged op is followed by a settle one time in three.
    #[test]
    fn staged_ops_settle_to_the_eager_state(
        ((cluster, jobs), ops) in (1usize..4, 2usize..6, 0usize..4, 1u32..5)
            .prop_map(|(racks, spr, pat, oversub)| Cluster::new(ClusterSpec {
                racks,
                servers_per_rack: spr,
                gpus_per_server: 4,
                server_link_gbps: 100.0,
                pat_gbps: [0.0, 7.5, 60.0, 1000.0][pat],
                oversubscription: oversub as f64,
                rtt_us: 50.0,
                racks_per_pod: None,
            }))
            .prop_flat_map(|c| {
                let jobs = arb_sharded_jobs(&c);
                (Just(c), jobs)
            })
            .prop_flat_map(|(c, jobs)| {
                let ops = proptest::collection::vec(any::<u32>(), 4 * jobs.len());
                (Just((c, jobs)), ops)
            })
    ) {
        let mut staged = IncrementalEstimator::new(&cluster, &[]);
        let mut eager = IncrementalEstimator::new(&cluster, &[]);
        let mut cleared = staged.state().clone();
        let mut live: Vec<PlacedJob> = Vec::new();
        let mut next = 0usize;
        let mut windows_of_many = 0;
        let mut in_window = 0;
        // What re-solving every network job at each settle would cost.
        let (mut staged_scratch, mut eager_scratch) = (0, 0);
        let network = |live: &[PlacedJob]| live.iter().filter(|j| j.is_network()).count() as u64;
        for (step, &word) in ops.iter().enumerate() {
            let lazy = word & 4 == 0;
            let pick = (word >> 8) as usize;
            match word & 3 {
                0 | 1 if next < jobs.len() => {
                    let job = jobs[next].clone();
                    next += 1;
                    live.push(job.clone());
                    eager.push(&cluster, job.clone());
                    if lazy { staged.stage_push(job) } else { staged.push(&cluster, job) }
                }
                2 if !live.is_empty() => {
                    let id = live.remove(pick % live.len()).id();
                    prop_assert!(eager.remove(&cluster, id));
                    let found =
                        if lazy { staged.stage_remove(id) } else { staged.remove(&cluster, id) };
                    prop_assert!(found);
                }
                3 if !live.is_empty() => {
                    let id = live.pop().map(|j| j.id());
                    prop_assert_eq!(eager.pop(&cluster), id);
                    let popped = if lazy { staged.stage_pop() } else { staged.pop(&cluster) };
                    prop_assert_eq!(popped, id);
                }
                _ => continue,
            }
            in_window += 1;
            eager_scratch += network(&live);
            if lazy && !pick.is_multiple_of(3) && step + 1 != ops.len() {
                prop_assert!(!staged.is_settled());
                continue;
            }
            staged.settle(&cluster);
            staged_scratch += network(&live);
            windows_of_many += usize::from(in_window > 1);
            in_window = 0;
            prop_assert!(staged.is_settled() && eager.is_settled());
            let scratch = estimate(&cluster, &live);
            prop_assert_eq!(staged.state().first_difference(&scratch), None, "step {}", step);
            prop_assert_eq!(staged.state().first_difference(eager.state()), None);
            let (now, all_links) = (staged.state(), 0..cluster.num_links());
            let moved = all_links.map(|l| LinkId::from_index(l, &cluster)).filter(|&link| {
                now.link_residual_gbps(link, &cluster).to_bits()
                    != cleared.link_residual_gbps(link, &cluster).to_bits()
                    || now.link_flows(link, &cluster) != cleared.link_flows(link, &cluster)
            });
            for link in moved {
                let l = link.index(&cluster) as u32;
                prop_assert!(staged.journal().contains(&l), "step {}: {} not journalled", step, link);
                prop_assert!(eager.journal().contains(&l), "step {}: {} not journalled eagerly", step, link);
            }
            for l in eager.journal() {
                prop_assert!(staged.journal().contains(l), "step {}: link {} journalled eagerly only", step, l);
            }
            cleared = now.clone();
            staged.clear_journal();
            eager.clear_journal();
        }
        // Same ops, fewer settles: eager settles once per op, staged once
        // per window, and neither ever re-solves more than from scratch.
        // (Staged may re-solve more than eager: a push the eager side
        // absorbs costs it one job, and the window's solve the component.)
        let (s, e) = (staged.stats(), eager.stats());
        prop_assert_eq!((s.pushes, s.removes, s.staged), (e.pushes, e.removes, e.staged));
        prop_assert_eq!(e.settles, e.staged);
        prop_assert!(s.settles <= s.staged);
        prop_assert!(s.jobs_resolved <= staged_scratch && e.jobs_resolved <= eager_scratch);
        prop_assert!(windows_of_many == 0 || s.settles < e.settles);
        prop_assert_eq!(s.unconverged + e.unconverged, 0);
    }

    /// `changed_since` is complete. A reader keeps its last copy of
    /// `(rate bits, shards)` per job and the settle number it last read
    /// at, drops the jobs it removed itself, and at each read updates only
    /// the ids listed. Over random interleavings of staged pushes (network
    /// and local jobs), positional removals, pops, re-tunes (a positional
    /// removal and a push of the same id) and settles —
    /// with none to several settles between two reads — every listed id is
    /// live and listed once, and every live job *not* listed is in the
    /// reader's copy bit for bit: nothing that differs, and nothing new, is
    /// missed. The estimator starts over a prefix of the jobs, so the first
    /// read (from 0) must list all of them. Per word: bits 0-2 pick the op,
    /// and a settled estimator is read two times in three.
    ///
    /// Three one-line mutations of `incremental.rs`, each failing this
    /// property in debug and in `--release`: a staged *local* push stamped
    /// 0 instead of the next settle's number; `epoch += 1` moved below
    /// `solve_pending` (solved jobs take the number the reader already
    /// holds); `stamps.remove(idx)` dropped from `stage_remove_at`.
    #[test]
    fn changed_since_lists_every_job_whose_rate_was_written(
        ((cluster, placements), prefix, ops) in arb_pat_cluster()
            .prop_flat_map(|c| {
                let placements = arb_mixed_placements(&c);
                (Just(c), placements)
            })
            .prop_flat_map(|(c, placements)| {
                let n = placements.len();
                let ops = proptest::collection::vec(any::<u32>(), 5 * n);
                (Just((c, placements)), 0..n.min(4), ops)
            })
    ) {
        let mut ids = 0u64;
        let mut fresh = |p: &Placement| {
            ids += 1;
            PlacedJob::new(JobId(ids), &cluster, p)
        };
        let mut unused = placements.iter();
        let mut live: Vec<PlacedJob> = unused.by_ref().take(prefix).map(&mut fresh).collect();
        let mut inc = IncrementalEstimator::new(&cluster, &live);
        let mut copy: std::collections::BTreeMap<JobId, (u64, usize)> = Default::default();
        let mut seen = 0u64;
        let last = ops.len() - 1;
        for (step, &word) in ops.iter().enumerate() {
            let pick = (word >> 8) as usize;
            match word & 7 {
                0 | 1 | 7 => {
                    if let Some(p) = unused.next() {
                        let job = fresh(p);
                        live.push(job.clone());
                        inc.stage_push(job);
                    }
                }
                2 if !live.is_empty() => {
                    let idx = pick % live.len();
                    let id = live.remove(idx).id();
                    prop_assert!(inc.stage_remove_at(idx, id));
                    copy.remove(&id);
                }
                3 => {
                    let id = live.pop().map(|j| j.id());
                    prop_assert_eq!(inc.stage_pop(), id);
                    if let Some(id) = id {
                        copy.remove(&id);
                    }
                }
                4 if !live.is_empty() => {
                    // Re-tune a live job: same id, another placement.
                    if let Some(p) = unused.next() {
                        let idx = pick % live.len();
                        let id = live.remove(idx).id();
                        prop_assert!(inc.stage_remove_at(idx, id));
                        let job = PlacedJob::new(id, &cluster, p);
                        live.push(job.clone());
                        inc.stage_push(job);
                    }
                }
                _ => inc.settle(&cluster),
            }
            if step == last {
                inc.settle(&cluster);
            }
            if !inc.is_settled() || (pick.is_multiple_of(3) && step != last) {
                continue;
            }
            let mut listed: Vec<JobId> = inc.changed_since(seen).collect();
            if seen == 0 {
                prop_assert_eq!(listed.len(), live.len(), "a reader from 0 sees every job");
            }
            let count = listed.len();
            listed.sort_unstable();
            listed.dedup();
            prop_assert_eq!(listed.len(), count, "step {}: an id listed twice", step);
            prop_assert!(
                listed.iter().all(|id| live.iter().any(|j| j.id() == *id)),
                "step {}: a removed job listed", step
            );
            for job in &live {
                let id = job.id();
                let rate = inc.state().job_rate_gbps(id).expect("a settled job has a rate");
                let now = (rate.to_bits(), inc.state().job_shards(id).expect("and shards"));
                if listed.binary_search(&id).is_ok() {
                    copy.insert(id, now);
                } else {
                    prop_assert_eq!(copy.get(&id), Some(&now), "step {}: {} missed", step, id);
                }
            }
            prop_assert_eq!(copy.len(), live.len());
            seen = inc.solve_epoch();
        }
    }

    /// Scale invariance: doubling all capacities (links and PAT) doubles
    /// every finite steady rate.
    #[test]
    fn rates_scale_linearly_with_capacity(
        (spec_seed, raw_jobs) in (1usize..3, 2usize..5).prop_flat_map(|(racks, spr)| {
            let spec = ClusterSpec {
                racks,
                servers_per_rack: spr,
                gpus_per_server: 4,
                server_link_gbps: 100.0,
                pat_gbps: 75.0,
                oversubscription: 2.0,
                rtt_us: 50.0,
                racks_per_pod: None,
            };
            let c = Cluster::new(spec.clone());
            let jobs = arb_jobs(&c);
            (Just(spec), jobs)
        })
    ) {
        let c1 = Cluster::new(spec_seed.clone());
        let c2 = Cluster::new(ClusterSpec {
            server_link_gbps: spec_seed.server_link_gbps * 2.0,
            pat_gbps: spec_seed.pat_gbps * 2.0,
            ..spec_seed
        });
        // Placements reference server ids valid in both clusters.
        let s1 = estimate(&c1, &raw_jobs);
        let s2 = estimate(&c2, &raw_jobs);
        for job in &raw_jobs {
            let r1 = s1.job_rate_gbps(job.id()).unwrap();
            let r2 = s2.job_rate_gbps(job.id()).unwrap();
            if r1.is_finite() {
                prop_assert!((r2 - 2.0 * r1).abs() < 1e-5, "{r1} vs {r2}");
            }
        }
    }
}

/// Why the absorb rule refuses a push, one bit per check: a link of the
/// pushed job `J` whose round-1 share falls under the level `δ`; a live
/// pool of `J`'s whose share does; `J` saturating none of its links; `J`'s
/// draws drying a pool; components merged at two levels; a merged component
/// whose solve ran more than one round (or ran a pool dry); a network
/// removal staged in the same settle.
const REFUSALS: [&str; 7] = [
    "link under δ",
    "pool under δ",
    "saturates nothing",
    "draws dry a pool",
    "two levels",
    "two rounds",
    "removal",
];
const LINK_UNDER: u8 = 1;
const POOL_UNDER: u8 = 1 << 1;
const SATURATES_NOTHING: u8 = 1 << 2;
const DRIES: u8 = 1 << 3;
const TWO_LEVELS: u8 = 1 << 4;
const TWO_ROUNDS: u8 = 1 << 5;
const REMOVAL: u8 = 1 << 6;

/// A job's resources read off its public trees: `(link index, flows under
/// the virgin PAT view)`, each link once, and the racks of the pools it
/// draws on, one per tree occurrence (none without INA).
fn resources(cluster: &Cluster, job: &PlacedJob) -> (Vec<(usize, u32)>, Vec<usize>) {
    let virgin = |r: RackId| cluster.racks()[r.0].pat_gbps() > EPSILON_GBPS;
    let mut links: Vec<(usize, u32)> = Vec::new();
    for h in job.components() {
        for (l, f) in h.link_flows(virgin) {
            let idx = l.index(cluster);
            match links.iter_mut().find(|e| e.0 == idx) {
                Some(e) => e.1 += f,
                None => links.push((idx, f)),
            }
        }
    }
    let pools = if job.components().iter().any(|h| h.ina_enabled()) {
        job.components()
            .iter()
            .flat_map(|h| h.switches())
            .map(|r| r.0)
            .collect()
    } else {
        Vec::new()
    };
    (links, pools)
}

/// Virgin capacity of the link with flat index `l`.
fn capacity(cluster: &Cluster, l: usize) -> f64 {
    match l.checked_sub(cluster.num_servers()) {
        None => cluster.spec().server_link_gbps,
        Some(rack) => cluster.racks()[rack].uplink_gbps(),
    }
}

/// A pool of residual `left` after `draws` guarded draws of `delta`.
fn drawn(mut left: f64, draws: usize, delta: f64) -> f64 {
    for _ in 0..draws {
        if left > EPSILON_GBPS {
            left -= delta;
        }
    }
    left
}

/// The absorb rule, read independently of the estimator from public
/// numbers alone: pushing `job` onto the settled jobs `live`, whose steady
/// state is `before`. Returns how many of `live`'s components `job` joins
/// and the refusal bits of the checks that fail. A component's level is
/// its first member's rate, and it is one-round when a solve of it alone
/// ran one round and left every live pool it draws on above the
/// threshold; `δ` is the level of the component of `job`'s first co-member
/// in insertion order.
fn absorb_verdict(
    cluster: &Cluster,
    live: &[PlacedJob],
    before: &SteadyState,
    job: &PlacedJob,
) -> (usize, u8) {
    let n_links = cluster.num_links();
    let held: Vec<_> = live.iter().map(|j| resources(cluster, j)).collect();
    let nodes = |(links, pools): &(Vec<(usize, u32)>, Vec<usize>)| {
        links
            .iter()
            .map(|e| e.0)
            .chain(pools.iter().map(|r| n_links + r))
            .collect::<Vec<_>>()
    };
    let mut parent: Vec<usize> = (0..n_links + cluster.num_racks()).collect();
    let find = |parent: &mut Vec<usize>, mut x: usize| {
        while parent[x] != x {
            x = parent[x];
        }
        x
    };
    for ns in held.iter().map(nodes) {
        for pair in ns.windows(2) {
            let (a, b) = (find(&mut parent, pair[0]), find(&mut parent, pair[1]));
            parent[a.max(b)] = a.min(b);
        }
    }
    let mine = resources(cluster, job);
    let joined: Vec<usize> = nodes(&mine)
        .into_iter()
        .map(|n| find(&mut parent, n))
        .collect();
    let (links, pools) = mine;
    // Each joined component's members in insertion order, the components
    // by their first member.
    let mut comps: Vec<(usize, Vec<PlacedJob>)> = Vec::new();
    for (other, res) in live.iter().zip(&held) {
        let Some(&(first, _)) = res.0.first() else {
            continue;
        };
        let root = find(&mut parent, first);
        if !joined.contains(&root) {
            continue;
        }
        match comps.iter_mut().find(|c| c.0 == root) {
            Some(c) => c.1.push(other.clone()),
            None => comps.push((root, vec![other.clone()])),
        }
    }
    let Some((_, first)) = comps.first() else {
        return (0, 0);
    };
    let delta = before.job_rate_gbps(first[0].id()).unwrap();
    let mut refusals = 0;
    for (_, members) in &comps {
        let level = before.job_rate_gbps(members[0].id()).unwrap();
        if level.to_bits() != delta.to_bits() {
            refusals |= TWO_LEVELS;
        }
        let alone = IncrementalEstimator::new(cluster, members);
        let dried = members
            .iter()
            .flat_map(|m| resources(cluster, m).1)
            .any(|r| {
                cluster.racks()[r].pat_gbps() > EPSILON_GBPS
                    && alone.state().pat_residual_gbps(RackId(r)) <= EPSILON_GBPS
            });
        if alone.stats().rounds != 1 || alone.stats().unconverged != 0 || dried {
            refusals |= TWO_ROUNDS;
        }
    }
    let mut saturates = false;
    for &(l, f) in &links {
        let link = LinkId::from_index(l, cluster);
        if capacity(cluster, l) / f64::from(before.link_flows(link, cluster) + f) < delta {
            refusals |= LINK_UNDER;
        }
        saturates |=
            before.link_residual_gbps(link, cluster) - delta * f64::from(f) <= EPSILON_GBPS;
    }
    if !saturates {
        refusals |= SATURATES_NOTHING;
    }
    for &r in &pools {
        let pat = cluster.racks()[r].pat_gbps();
        if pat <= EPSILON_GBPS {
            continue;
        }
        let occurrences = held.iter().map(|res| &res.1).chain([&pools]).flatten();
        let at_r = occurrences.filter(|&&q| q == r).count();
        if pat / (at_r as f64) < delta {
            refusals |= POOL_UNDER;
        }
        let draws = pools.iter().filter(|&&q| q == r).count();
        if drawn(before.pat_residual_gbps(RackId(r)), draws, delta) <= EPSILON_GBPS {
            refusals |= DRIES;
        }
    }
    (comps.len(), refusals)
}

/// An absorbed push is exact. On the packed clusters of the literal-loop
/// oracle, 3 072 seeds, jobs are pushed one at a time and settled at once,
/// in order of the racks their servers span, fewest first, so that the
/// jobs that span racks arrive to bridge components. Before a push, one
/// time in six a random live job is removed and settled (a full solve
/// that resets its component's level), and one time in six a removal is
/// staged into the push's own settle. After every settle the state is
/// bit-identical to `estimate` over the same jobs, and the estimator
/// absorbed the push (`warm_pushes`) exactly when [`absorb_verdict`] —
/// the rule restated from public numbers — says it may. More than twenty
/// seeds each reach an absorbed push, an absorbed merge of two or more
/// components at one level, and every refusal as the only check that
/// refuses, except the pool share: a pool whose share is under `δ` is one
/// the draws run dry at these magnitudes, so it is counted wherever it
/// refuses.
///
/// One-line mutations of `waterfill.rs`, each run in a debug build and
/// under `--release`. Six fail the bit-equality with `estimate`: `J`'s
/// links started from capacity instead of the stored residuals; a pool
/// the draws dry accepted (`<= EPSILON_GBPS` → `< 0.0`); the link-share
/// check dropped; the saturation check dropped; and, once the decision
/// assertion is taken out, merged levels left uncompared and a solve of
/// two or more rounds reporting a level. One fails the decision assertion
/// only: a one-round solve that ran a pool dry reporting a level, since
/// every `J` that draws on the dried pool is refused by the draw check.
/// One survives: dropping the pool-share check, for the reason above; the
/// check stays because it makes `δ` the round-1 minimum at any magnitude,
/// not only where `ε` exceeds the draws' rounding.
#[test]
fn an_absorbed_push_settles_to_the_estimate() {
    let mut absorbed = [0usize; 2];
    let mut refused = [0usize; REFUSALS.len()];
    for seed in 0..3072 {
        let (cluster, mut placements) = packed::packed_case(seed);
        placements.sort_by_key(|p| {
            let servers = p
                .workers()
                .iter()
                .map(|&(s, _)| s)
                .chain(p.pses().iter().copied());
            let racks: std::collections::BTreeSet<_> =
                servers.map(|s| cluster.rack_of(s)).collect();
            racks.len()
        });
        let mut rng = packed::Rng(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1);
        let mut inc = IncrementalEstimator::new(&cluster, &[]);
        let mut live: Vec<PlacedJob> = Vec::new();
        let (mut seed_absorbed, mut seed_refused) = ([false; 2], [false; REFUSALS.len()]);
        for (i, p) in placements.iter().enumerate() {
            let mut refusals = 0;
            let roll = rng.below(6);
            if roll < 2 && !live.is_empty() {
                let victim = live.remove(rng.below(live.len()));
                assert!(inc.stage_remove(victim.id()));
                if roll == 0 {
                    inc.settle(&cluster);
                    assert_eq!(
                        inc.state().first_difference(&estimate(&cluster, &live)),
                        None,
                        "seed {seed}"
                    );
                } else if victim.is_network() {
                    refusals |= REMOVAL;
                }
            }
            let job = PlacedJob::new(JobId(i as u64), &cluster, p);
            let before = estimate(&cluster, &live);
            let (joins, checks) = absorb_verdict(&cluster, &live, &before, &job);
            refusals |= checks;
            let warm = inc.stats().warm_pushes;
            live.push(job.clone());
            inc.push(&cluster, job.clone());
            let at = format!("seed {seed}, push {i}, refusals {refusals:#b}");
            assert_eq!(
                inc.state().first_difference(&estimate(&cluster, &live)),
                None,
                "{at}"
            );
            let applies = job.is_network() && joins > 0;
            assert_eq!(
                inc.stats().warm_pushes - warm,
                u64::from(applies && refusals == 0),
                "{at}"
            );
            if applies && refusals == 0 {
                seed_absorbed[0] = true;
                seed_absorbed[1] |= joins > 1;
            } else if applies && (refusals.count_ones() == 1 || refusals & POOL_UNDER != 0) {
                let why = if refusals & POOL_UNDER != 0 {
                    POOL_UNDER
                } else {
                    refusals
                };
                seed_refused[why.trailing_zeros() as usize] = true;
            }
        }
        for (count, seen) in absorbed
            .iter_mut()
            .zip(seed_absorbed)
            .chain(refused.iter_mut().zip(seed_refused))
        {
            *count += usize::from(seen);
        }
    }
    assert!(
        absorbed.iter().chain(&refused).all(|&n| n > 20),
        "[absorbed, absorbed merge] = {absorbed:?}, refusals {:?}",
        REFUSALS.iter().zip(refused).collect::<Vec<_>>()
    );
}
