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

/// The literal loop. `members` are the network jobs of one component in
/// insertion order; the component's resources in `state` are virgin.
fn solve_component(cluster: &Cluster, members: &[&PlacedJob], state: &mut SteadyState) {
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
                if a.flows
                    .iter()
                    .any(|&(l, f)| f > 0 && bw[l] <= EPSILON_GBPS)
                {
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
    let mut state = empty_state(cluster, jobs);
    for group in partition_components(cluster, jobs) {
        let members: Vec<&PlacedJob> = group.iter().map(|&i| &jobs[i]).collect();
        solve_component(cluster, &members, &mut state);
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
fn arb_cluster() -> impl Strategy<Value = Cluster> {
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
fn arb_jobs(cluster: &Cluster) -> impl Strategy<Value = Vec<PlacedJob>> {
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
