//! Test oracle: Algorithm 1's round loop exactly as it was first written.
//!
//! Every round sweeps *all* of the component's links three times (zero the
//! totals, take the share minimum, check saturation) and all of its jobs
//! three times, frozen or not. The production [`solve_component`]
//! (`crate::waterfill`) carries the totals across rounds and walks only
//! live links and unfrozen jobs; [`estimate`](crate::estimate) and
//! [`IncrementalEstimator`](crate::IncrementalEstimator) share it, so
//! their push ≡ scratch property cannot see a solver bug. This module can:
//! the two loops must leave **bit-identical** steady states.

use crate::waterfill::{empty_state, partition_components, PlacedJob};
use crate::{estimate, SteadyState, EPSILON_GBPS};
use netpack_model::{JobHierarchy, Placement};
use netpack_topology::{Cluster, ClusterSpec, JobId, RackId, ServerId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The count every unfrozen job had on each of its links, round by round:
/// `(job, link)` → one count per round the job ran unfrozen.
type CountLog = BTreeMap<(JobId, usize), Vec<u32>>;

/// The literal loop. `members` are the network jobs of one component in
/// insertion order; the component's resources in `state` are virgin. Each
/// round's counts are appended to `log`, which no number of the loop reads.
fn solve_component(
    cluster: &Cluster,
    members: &[&PlacedJob],
    state: &mut SteadyState,
    log: &mut CountLog,
) {
    if members.is_empty() {
        return;
    }
    let n_links = cluster.num_links();
    let n_racks = cluster.num_racks();
    let bw = &mut state.link_residual;
    let pat = &mut state.pat_residual;

    struct Active<'a> {
        id: JobId,
        components: &'a [JobHierarchy],
        /// Cached (link index, flow count); refreshed when PAT states flip.
        flows: Vec<(usize, u32)>,
        /// Rack indices this job's components aggregate at while PAT
        /// remains (one entry per component occurrence).
        switches: Vec<usize>,
        ina_enabled: bool,
        rate: f64,
        frozen: bool,
    }
    let mut active: Vec<Active<'_>> = members
        .iter()
        .map(|job| Active {
            id: job.id(),
            components: job.components(),
            flows: Vec::new(),
            switches: job
                .components()
                .iter()
                .flat_map(|h| h.switches())
                .map(|r| r.0)
                .collect(),
            ina_enabled: job.components().iter().any(JobHierarchy::ina_enabled),
            rate: 0.0,
            frozen: false,
        })
        .collect();

    // The component's own resource index lists; every per-round scan is
    // restricted to these, so a small component in a big cluster stays
    // cheap even though the state vectors are cluster-sized.
    let mut links: Vec<usize> = Vec::new();
    let mut racks: Vec<usize> = Vec::new();
    for job in members {
        for h in job.components() {
            for (l, _) in h.link_flows(|_| false) {
                links.push(l.index(cluster));
            }
        }
    }
    for a in &active {
        if a.ina_enabled {
            racks.extend(a.switches.iter().copied());
        }
    }
    links.sort_unstable();
    links.dedup();
    racks.sort_unstable();
    racks.dedup();

    let mut unfrozen = active.len();
    let mut flows_stale = true;
    // Round bound with headroom; the loop always exits earlier because
    // every round saturates a link or exhausts a PAT pool.
    let max_rounds = 2 * (links.len() + racks.len()) + 8;
    let mut link_flows_total = vec![0u64; n_links];
    let mut rack_jobs = vec![0u32; n_racks];
    let mut pat_was_live = vec![false; n_racks];

    for _ in 0..max_rounds {
        if unfrozen == 0 {
            break;
        }
        // UpdateFlows: recompute per-job link flows under the current
        // PAT-residual predicate (only needed after a PAT flip).
        if flows_stale {
            for a in active.iter_mut().filter(|a| !a.frozen) {
                let agg = |r: RackId| pat[r.0] > EPSILON_GBPS;
                a.flows.clear();
                for h in a.components {
                    for (l, f) in h.link_flows(agg) {
                        let idx = l.index(cluster);
                        match a.flows.iter_mut().find(|(i, _)| *i == idx) {
                            Some(e) => e.1 += f,
                            None => a.flows.push((idx, f)),
                        }
                    }
                }
            }
            flows_stale = false;
        }
        for a in active.iter().filter(|a| !a.frozen) {
            for &(l, f) in &a.flows {
                log.entry((a.id, l)).or_default().push(f);
            }
        }

        // Count flows per link and aggregating jobs per rack.
        for &l in &links {
            link_flows_total[l] = 0;
        }
        for &r in &racks {
            rack_jobs[r] = 0;
        }
        for a in active.iter().filter(|a| !a.frozen) {
            for &(l, f) in &a.flows {
                link_flows_total[l] += u64::from(f);
            }
            if a.ina_enabled {
                for &r in &a.switches {
                    if pat[r] > EPSILON_GBPS {
                        rack_jobs[r] += 1;
                    }
                }
            }
        }

        // Minimum per-flow share across loaded links and switches.
        let mut delta = f64::INFINITY;
        for &l in &links {
            if link_flows_total[l] > 0 {
                delta = delta.min((bw[l].max(0.0)) / link_flows_total[l] as f64);
            }
        }
        for &r in &racks {
            if rack_jobs[r] > 0 {
                delta = delta.min((pat[r].max(0.0)) / f64::from(rack_jobs[r]));
            }
        }
        if !delta.is_finite() {
            // No unfrozen job touches any link: freeze them all at their
            // current rate (degenerate but defensively handled).
            for a in active.iter_mut().filter(|a| !a.frozen) {
                a.frozen = true;
            }
            unfrozen = 0;
            break;
        }

        // Augment: raise every active job by delta, drain links and PAT.
        for &r in &racks {
            pat_was_live[r] = pat[r] > EPSILON_GBPS;
        }
        for a in active.iter_mut().filter(|a| !a.frozen) {
            a.rate += delta;
            for &(l, f) in &a.flows {
                bw[l] -= delta * f64::from(f);
            }
            if a.ina_enabled {
                for &r in &a.switches {
                    if pat[r] > EPSILON_GBPS {
                        pat[r] -= delta;
                    }
                }
            }
        }
        // Pin near-zero residuals and detect PAT flips.
        for &r in &racks {
            if pat_was_live[r] && pat[r] <= EPSILON_GBPS {
                pat[r] = 0.0;
                flows_stale = true;
            }
        }
        let mut any_link_saturated = false;
        for &l in &links {
            if link_flows_total[l] > 0 && bw[l] <= EPSILON_GBPS {
                bw[l] = bw[l].max(0.0);
                any_link_saturated = true;
            }
        }
        // Freeze jobs crossing a saturated link.
        if any_link_saturated {
            for a in active.iter_mut().filter(|a| !a.frozen) {
                if a.flows.iter().any(|&(l, f)| f > 0 && bw[l] <= EPSILON_GBPS) {
                    a.frozen = true;
                    unfrozen -= 1;
                }
            }
        }
    }
    debug_assert_eq!(unfrozen, 0, "water-filling failed to converge");

    // Converged flow counts including frozen jobs, under the final PAT view
    // (a job's own switches are all inside its component, so the component
    // view and the global view agree), and residual clamping.
    let agg = |r: RackId| pat[r.0] > EPSILON_GBPS;
    for a in &active {
        state.job_rates.insert(a.id, a.rate);
        for h in a.components {
            for (l, f) in h.link_flows(agg) {
                state.link_flows[l.index(cluster)] += f;
            }
        }
    }
    for &l in &links {
        bw[l] = bw[l].max(0.0);
    }
}

/// [`estimate`] over the literal loop.
fn estimate_literal(cluster: &Cluster, jobs: &[PlacedJob]) -> SteadyState {
    estimate_logged(cluster, jobs, &mut CountLog::new())
}

/// [`estimate_literal`], with every round's counts appended to `log`.
fn estimate_logged(cluster: &Cluster, jobs: &[PlacedJob], log: &mut CountLog) -> SteadyState {
    let mut state = empty_state(cluster, jobs);
    for group in partition_components(cluster, jobs) {
        let members: Vec<&PlacedJob> = group.iter().map(|&i| &jobs[i]).collect();
        solve_component(cluster, &members, &mut state, log);
    }
    state
}

/// Every number in a steady state as raw bits, in one fixed order.
fn bits(s: &SteadyState) -> Vec<u64> {
    let rates = s.job_rates.iter().flat_map(|(&id, r)| [id.0, r.to_bits()]);
    rates
        .chain(s.link_residual.iter().map(|r| r.to_bits()))
        .chain(s.link_flows.iter().map(|&f| u64::from(f)))
        .chain(s.pat_residual.iter().map(|r| r.to_bits()))
        .collect()
}

/// 1–4 racks of 2–6 servers; PAT from 0 through "dries up mid-fill"
/// (a few Gbps against 100 Gbps links, so pools flip while jobs are still
/// unfrozen, several per solve) to "never binds"; oversubscribed uplinks.
pub(crate) fn arb_cluster() -> impl Strategy<Value = Cluster> {
    (1usize..5, 2usize..7, 0usize..6, 1u32..5).prop_map(|(racks, spr, pat, oversub)| {
        Cluster::new(ClusterSpec {
            racks,
            servers_per_rack: spr,
            gpus_per_server: 4,
            server_link_gbps: 100.0,
            pat_gbps: [0.0, 3.0, 7.5, 20.0, 60.0, 1000.0][pat],
            oversubscription: f64::from(oversub),
            rtt_us: 50.0,
            racks_per_pod: None,
        })
    })
}

/// 1–12 jobs over the whole cluster: 1–5 worker servers anywhere (so jobs
/// span racks and pile into one component), 1–3 PSes anywhere (sharded
/// trees; a PS may sit on a worker server), INA on or off.
pub(crate) fn arb_jobs(cluster: &Cluster) -> impl Strategy<Value = Vec<PlacedJob>> {
    let ns = cluster.num_servers();
    let cluster = cluster.clone();
    let job = (
        proptest::collection::btree_map(0..ns, 1usize..5, 1..6.min(ns + 1)),
        proptest::collection::vec(0..ns, 1..4),
        any::<bool>(),
    );
    proptest::collection::vec(job, 1..13).prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (workers, pses, ina))| {
                let workers = workers.into_iter().map(|(s, w)| (ServerId(s), w)).collect();
                let pses = pses.into_iter().map(ServerId).collect();
                let mut p = Placement::new_sharded(workers, pses);
                p.set_ina_enabled(ina);
                PlacedJob::new(JobId(i as u64), &cluster, &p)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn live_link_rounds_match_the_literal_loop(
        (cluster, jobs) in arb_cluster().prop_flat_map(|c| {
            let jobs = arb_jobs(&c);
            (Just(c), jobs)
        })
    ) {
        let fast = estimate(&cluster, &jobs);
        let literal = estimate_literal(&cluster, &jobs);
        prop_assert_eq!(bits(&fast), bits(&literal));
        prop_assert_eq!(fast.job_shards, literal.job_shards);
    }
}

/// The packed-cluster cases, as placements: the generator lives beside
/// the integration tests, which build on it too.
#[path = "../tests/packed/mod.rs"]
mod packed;

/// [`packed::packed_case`] with job `i` of its placements as `JobId(i)`.
fn packed_case(seed: u64) -> (Cluster, Vec<PlacedJob>) {
    let (cluster, placements) = packed::packed_case(seed);
    let job = |(i, p): (usize, &Placement)| PlacedJob::new(JobId(i as u64), &cluster, p);
    let jobs = placements.iter().enumerate().map(job).collect();
    (cluster, jobs)
}

/// `(link index, flows with every pool aggregating, flows with none)` of
/// `job`, each link once.
fn run_extremes(cluster: &Cluster, job: &PlacedJob) -> Vec<(usize, u32, u32)> {
    let mut run: Vec<(usize, u32, u32)> = Vec::new();
    for h in job.components() {
        for ((l, all), (_, none)) in h
            .link_flows(|_| true)
            .into_iter()
            .zip(h.link_flows(|_| false))
        {
            let idx = l.index(cluster);
            match run.iter_mut().find(|e| e.0 == idx) {
                Some(e) => (e.1, e.2) = (e.1 + all, e.2 + none),
                None => run.push((idx, all, none)),
            }
        }
    }
    run
}

/// Which of the class mechanism's six situations the solve of `jobs`
/// went through, read off the inputs and the converged `state` alone. A
/// member's final rate names the round it froze in (the level rises every
/// round), and a saturated link went under in the round its fastest
/// crosser froze. In order: a link filled through a class (*lone*: an
/// access link one run of its component names, with a count below 64 that
/// no PAT view moves); two classes live at once; a class saturating in the
/// round an ordinary link does; a member frozen by an ordinary link while
/// a class of its own lives on; a pool that ran dry after a member
/// drawing on it had frozen (had they all been unfrozen, each would have
/// drawn the same `PAT / n`, so the slowest froze earlier iff `n` times
/// its rate falls short of the pool); a pool that ran dry in the last
/// round of its component's solve, when no round is left to notice (every
/// job drew on it all its life — the rates sum to the pool — and one of
/// them was among the last to freeze).
fn class_coverage(cluster: &Cluster, jobs: &[PlacedJob], state: &SteadyState) -> [bool; 6] {
    let mut seen = [false; 6];
    let rate = |j: usize| state.job_rates[&jobs[j].id()];
    let saturated = |l: usize| state.link_residual[l] <= EPSILON_GBPS;
    for group in partition_components(cluster, jobs) {
        let runs: Vec<_> = group
            .iter()
            .map(|&j| (j, run_extremes(cluster, &jobs[j])))
            .collect();
        let mut crossers: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (j, run) in &runs {
            for e in run {
                crossers.entry(e.0).or_default().push(*j);
            }
        }
        let is_lone = |&(l, all, none): &(usize, u32, u32)| {
            l < cluster.num_servers() && all == none && all < 64 && crossers[&l].len() == 1
        };
        // Whether `j` froze in the round one of its ordinary links went under.
        let frozen_by_ordinary = |j: usize, run: &[(usize, u32, u32)]| {
            run.iter().any(|e| {
                let went_under = crossers[&e.0].iter().map(|&k| rate(k)).fold(0.0, f64::max);
                !is_lone(e) && saturated(e.0) && went_under == rate(j)
            })
        };
        // (owner, flows) of every lone entry of the component.
        let lone = |(j, run): &(usize, Vec<(usize, u32, u32)>)| {
            let j = *j;
            run.iter()
                .filter(|e| is_lone(e))
                .map(move |e| (j, e.1))
                .collect::<Vec<_>>()
        };
        let all_lone: Vec<(usize, u32)> = runs.iter().flat_map(lone).collect();
        seen[0] |= !all_lone.is_empty();
        seen[1] |= all_lone.iter().any(|a| a.1 != all_lone[0].1);
        for (j, run) in &runs {
            for e in run.iter().filter(|e| is_lone(e)) {
                seen[2] |= saturated(e.0) && frozen_by_ordinary(*j, run);
                let outlived = all_lone
                    .iter()
                    .any(|&(k, f)| f == e.1 && rate(k) > rate(*j));
                seen[3] |= outlived && frozen_by_ordinary(*j, run);
            }
        }
        for (r, rack) in cluster.racks().iter().enumerate() {
            let draws: Vec<f64> = group
                .iter()
                .filter(|&&j| jobs[j].components().iter().any(JobHierarchy::ina_enabled))
                .flat_map(|&j| {
                    let at = jobs[j].components().iter().flat_map(|h| h.switches());
                    at.filter(move |s| s.0 == r).map(move |_| rate(j))
                })
                .collect();
            let ran_dry = rack.pat_gbps() > EPSILON_GBPS && state.pat_residual[r] == 0.0;
            let slowest = draws.iter().copied().fold(f64::INFINITY, f64::min);
            let fastest = draws.iter().copied().fold(0.0, f64::max);
            seen[4] |= ran_dry && slowest * (draws.len() as f64) < rack.pat_gbps() * (1.0 - 1e-9);
            seen[5] |= ran_dry
                && draws.iter().sum::<f64>() <= rack.pat_gbps() * (1.0 + 1e-9)
                && fastest == group.iter().map(|&j| rate(j)).fold(0.0, f64::max);
        }
    }
    seen
}

/// The oracle where the classes are: packed clusters, where most access
/// links carry one job, held bit-identical to the literal loop — with the
/// situations only a class solver can get wrong each reached in more than
/// twenty cases ([`class_coverage`]).
///
/// Three small mutations of `waterfill::solve_component`, each failing
/// this test in a debug build and under `--release`:
///
/// * the `class_bw[f] -= δ·f` store moved below the `freeze` call, so a
///   freeze copies the class residual as it stood *before* the round's
///   subtraction;
/// * the class pin skipped (`pinned |= 1 << f` dropped, so a saturated
///   class freezes nobody);
/// * a steady entry with degree 2 treated as lone (`degree[l] <= 2`).
///
/// A fourth was a bug of the first draft, which the 512-case property
/// above let through and this one stops at seed 4: noting a PAT flip
/// where the *next* round rewrites the flipped members, so that a pool
/// running dry in a solve's last round left the virgin flow counts behind.
#[test]
fn class_rounds_match_the_literal_loop_on_packed_clusters() {
    let mut reached = [0usize; 6];
    for seed in 0..1024 {
        let (cluster, jobs) = packed_case(seed);
        let fast = estimate(&cluster, &jobs);
        let literal = estimate_literal(&cluster, &jobs);
        assert_eq!(bits(&fast), bits(&literal), "seed {seed}");
        assert_eq!(fast.job_shards, literal.job_shards, "seed {seed}");
        for (count, seen) in reached
            .iter_mut()
            .zip(class_coverage(&cluster, &jobs, &literal))
        {
            *count += usize::from(seen);
        }
    }
    assert!(
        reached.iter().all(|&n| n > 20),
        "[lone, two classes, class with ordinary, outlived, flip after freeze, flip at the end] = {reached:?}"
    );
}

/// A cluster whose pools run dry mid-solve under INA jobs that own their
/// PS links alone: 2–5 racks of 6–12 servers with 4 or 8 GPUs, PAT of 2 to
/// 60 Gbps against 100 Gbps links, 4–12 jobs. A job's workers take 1–4
/// servers of its home rack nobody else holds, whole two times in three,
/// and one time in three 1–2 more in another rack. INA is on for three jobs
/// in four; five of six such jobs put their PS — two of them one time in
/// six — on servers of their own in the home rack, and every other job
/// puts its one PS on a worker server. A PS link alone on its server then carries one aggregated
/// stream until its rack's pool runs dry, its local workers plus one per
/// aggregating remote rack after that, and every worker once the remote
/// pools follow.
fn dry_case(seed: u64) -> (Cluster, Vec<Placement>) {
    let mut rng = packed::Rng(seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1);
    let gps = [4, 8][rng.below(2)];
    let (racks, spr) = (2 + rng.below(4), 6 + rng.below(7));
    let cluster = Cluster::new(ClusterSpec {
        racks,
        servers_per_rack: spr,
        gpus_per_server: gps,
        server_link_gbps: 100.0,
        pat_gbps: [2.0, 6.0, 15.0, 30.0, 60.0][rng.below(5)],
        oversubscription: (1 + rng.below(2)) as f64,
        rtt_us: 50.0,
        racks_per_pod: None,
    });
    let mut decks: Vec<Vec<usize>> = (0..racks)
        .map(|r| {
            let mut deck: Vec<usize> = (r * spr..(r + 1) * spr).collect();
            for i in (1..spr).rev() {
                deck.swap(i, rng.below(i + 1));
            }
            deck
        })
        .collect();
    // A server of rack `r` nobody holds yet, or any of its servers once
    // the rack is dealt out.
    let mut take = |rng: &mut packed::Rng, r: usize| {
        decks[r].pop().unwrap_or_else(|| r * spr + rng.below(spr))
    };
    let jobs = (0..4 + rng.below(9))
        .map(|_| {
            let home = rng.below(racks);
            let away = (home + 1 + rng.below(racks - 1)) % racks;
            let mut workers = BTreeMap::new();
            let elsewhere = if rng.below(3) == 0 {
                1 + rng.below(2)
            } else {
                0
            };
            for (rack, servers) in [(home, 1 + rng.below(4)), (away, elsewhere)] {
                for _ in 0..servers {
                    let server = take(&mut rng, rack);
                    workers.insert(
                        ServerId(server),
                        if rng.below(3) > 0 {
                            gps
                        } else {
                            1 + rng.below(gps)
                        },
                    );
                }
            }
            let held: Vec<ServerId> = workers.keys().copied().collect();
            let ina = rng.below(4) > 0;
            let pses = if ina && rng.below(6) > 0 {
                let n = 1 + usize::from(rng.below(6) == 0);
                (0..n).map(|_| ServerId(take(&mut rng, home))).collect()
            } else {
                vec![held[rng.below(held.len())]]
            };
            let mut p = Placement::new_sharded(workers.into_iter().collect(), pses);
            p.set_ina_enabled(ina);
            p
        })
        .collect();
    (cluster, jobs)
}

/// Which of the refinable classes' six situations the literal solves of
/// `jobs` went through, read off the inputs, the converged `state` and the
/// count `log` of those solves. A *refinable* link is a server access link
/// one run of its component names and no steady class can take (a count
/// some PAT view moves, or one of 64 or more); its class at a round is its
/// count history up to that round, since links that start equal and take
/// the same `δ·f` sequence hold the same bits. In order: a split (a count
/// that moved while its owner ran); two links leaving one class for one
/// new class at one flip; a split class that pinned (its link saturated,
/// so its owner froze in the round it went under); a class emptied by a
/// retire before it pinned (a link left above the threshold); a split of
/// an already-split class (two moves); and a member owning both a
/// steady-class link and a refinable one.
fn refinable_coverage(
    cluster: &Cluster,
    jobs: &[PlacedJob],
    state: &SteadyState,
    log: &CountLog,
) -> [bool; 6] {
    let mut seen = [false; 6];
    for group in partition_components(cluster, jobs) {
        let runs: Vec<_> = group
            .iter()
            .map(|&j| (j, run_extremes(cluster, &jobs[j])))
            .collect();
        let mut crossers: BTreeMap<usize, usize> = BTreeMap::new();
        for e in runs.iter().flat_map(|(_, run)| run) {
            *crossers.entry(e.0).or_default() += 1;
        }
        let alone = |l: usize| l < cluster.num_servers() && crossers[&l] == 1;
        let mut refinable: Vec<(usize, &[u32])> = Vec::new();
        for (j, run) in &runs {
            let steady = |&&(_, all, none): &&(usize, u32, u32)| all == none && all < 64;
            let mine = run.iter().filter(|e| alone(e.0));
            seen[5] |= mine.clone().any(|e| steady(&e)) && mine.clone().any(|e| !steady(&e));
            for e in mine.filter(|e| !steady(e)) {
                refinable.push((e.0, &log[&(jobs[*j].id(), e.0)]));
            }
        }
        let moves = |h: &[u32]| h.windows(2).filter(|w| w[0] != w[1]).count();
        for &(l, h) in &refinable {
            let saturated = state.link_residual[l] <= EPSILON_GBPS;
            seen[0] |= moves(h) > 0;
            seen[2] |= moves(h) > 0 && saturated;
            seen[3] |= !saturated;
            seen[4] |= moves(h) > 1;
        }
        for (i, &(_, a)) in refinable.iter().enumerate() {
            for &(_, b) in &refinable[i + 1..] {
                let shared = a.iter().zip(b).take_while(|(x, y)| x == y).count();
                seen[1] |= (1..shared).any(|t| a[t] != a[t - 1]);
            }
        }
    }
    seen
}

/// The oracle where the refinable classes are: [`dry_case`] clusters, whose
/// INA jobs own their PS links and whose pools run dry mid-solve, built up
/// through an [`IncrementalEstimator`](crate::IncrementalEstimator) — one
/// to three pushes a settle, one settle in four with a removal staged
/// beside them — and held bit-identical to the literal loop after every
/// settle, with each situation of [`refinable_coverage`] reached in more
/// than twenty seeds (the counts are printed).
///
/// Four one-line mutations of `waterfill.rs` each fail it, in a debug
/// build and under `--release`: a moved link's new class opened at the
/// server link capacity instead of its old class's residual; new classes
/// keyed by count alone, which merges histories; `retire` not writing
/// the class residual; a pinned class not freezing its owners. A moved
/// link opening a class of its own instead of sharing one survives, as it
/// should — it is exact, only slower — and the tier-1
/// `waterfill_link_visits` pin catches it.
#[test]
fn refinable_classes_match_the_literal_loop_after_every_settle() {
    let mut reached = [0usize; 6];
    for seed in 0..768 {
        let (cluster, placements) = dry_case(seed);
        let mut rng = packed::Rng(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
        let mut inc = crate::IncrementalEstimator::new(&cluster, &[]);
        let mut live: Vec<PlacedJob> = Vec::new();
        let mut seen = [false; 6];
        let mut pending = placements.iter().enumerate().peekable();
        while pending.peek().is_some() {
            if rng.below(4) == 0 && !live.is_empty() {
                let victim = live.remove(rng.below(live.len()));
                assert!(inc.stage_remove(victim.id()));
            }
            for (i, p) in pending.by_ref().take(1 + rng.below(3)) {
                let job = PlacedJob::new(JobId(i as u64), &cluster, p);
                live.push(job.clone());
                inc.stage_push(job);
            }
            inc.settle(&cluster);
            let mut log = CountLog::new();
            let literal = estimate_logged(&cluster, &live, &mut log);
            assert_eq!(
                bits(inc.state()),
                bits(&literal),
                "seed {seed}, {} jobs",
                live.len()
            );
            for (s, now) in seen
                .iter_mut()
                .zip(refinable_coverage(&cluster, &live, &literal, &log))
            {
                *s |= now;
            }
        }
        assert_eq!(
            bits(&estimate(&cluster, &live)),
            bits(&estimate_literal(&cluster, &live)),
            "seed {seed}"
        );
        let split = inc.stats().class_splits > 0;
        assert_eq!(
            seen[0], split,
            "seed {seed}: the solver and the literal loop disagree on a split"
        );
        for (count, seen) in reached.iter_mut().zip(seen) {
            *count += usize::from(seen);
        }
    }
    let counts = format!(
        "[split, two links into one class, split class pins, emptied by a retire, \
         split of a split, steady and refinable] = {reached:?}"
    );
    println!("{counts}");
    assert!(reached.iter().all(|&n| n > 20), "{counts}");
}

/// The steady table is keyed by a flow count below 64. A server holding 70
/// workers of one job is past it, but alone on its link, so it fills
/// through a refinable class, next to the 2-flow link of the same job in
/// the steady table; the steady state is the literal loop's all the same.
/// (Before the refinable classes the 70-flow link stayed ordinary and two
/// entries went through a class; now three do.)
#[test]
fn a_link_of_64_flows_or_more_fills_through_a_refinable_class() {
    let cluster = Cluster::new(ClusterSpec {
        racks: 1,
        servers_per_rack: 4,
        gpus_per_server: 80,
        ..ClusterSpec::paper_default()
    });
    let mut big = Placement::new(vec![(ServerId(0), 70), (ServerId(1), 2)], Some(ServerId(2)));
    big.set_ina_enabled(false);
    let small = Placement::new(vec![(ServerId(3), 63)], Some(ServerId(2)));
    let jobs = [
        PlacedJob::new(JobId(0), &cluster, &big),
        PlacedJob::new(JobId(1), &cluster, &small),
    ];
    // Server 1 (2 flows) and server 3 (63 flows) fill through the steady
    // table, server 0 (70) through a refinable class no flip splits — the
    // job is INA-disabled — and the PS link both jobs cross is ordinary.
    let inc = crate::IncrementalEstimator::new(&cluster, &jobs);
    assert_eq!((inc.stats().lone_entries, inc.stats().class_splits), (3, 0));
    let literal = estimate_literal(&cluster, &jobs);
    assert_eq!(bits(inc.state()), bits(&literal));
    assert_eq!(bits(&estimate(&cluster, &jobs)), bits(&literal));
}
