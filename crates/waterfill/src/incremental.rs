//! Incremental steady-state estimation for placement-time scoring.
//!
//! During one `place_batch` call the placer runs Algorithm 1 once per job
//! it admits, each time with one more job than before. A from-scratch
//! [`estimate`](crate::estimate) re-solves every job every time; the
//! [`IncrementalEstimator`] instead snapshots the converged
//! [`SteadyState`] and, when a job is pushed, re-solves only the
//! resource-connected component the new job lands in — the links, racks,
//! and PAT pools it actually touches. Components it does not touch keep
//! their cached rates, flow counts, and residuals verbatim.
//!
//! Because [`estimate`](crate::estimate) itself solves per component (in
//! job insertion order), the incremental path replays the exact same
//! floating-point operations on the affected component and the result is
//! **bit-identical** to a from-scratch solve over the full job list. The
//! property test `incremental_push_matches_from_scratch_estimate`
//! (`tests/properties.rs`) pins this.
//!
//! # Invalidation rules
//!
//! Pushing a job dirties precisely the union of the components its
//! resource nodes connect to, where a job's resource nodes are its links
//! plus — only when it is INA-enabled — the PAT pools of its switches.
//! Everything else stays cached.
//!
//! Removing a job ([`remove`](IncrementalEstimator::remove)) dirties the
//! component the job *leaves*: its former co-members are regrouped (the
//! component may split now that the bridge is gone) and each surviving
//! sub-component is re-solved from virgin resources, again in global
//! insertion order. Resources only the removed job touched return to full
//! capacity. This is what lets a long-running simulation keep one warm
//! estimator across arbitrarily interleaved placements and completions —
//! the flow-level simulator's fast path.
//!
//! # Change journal
//!
//! Every write to `SteadyState::{link_residual, link_flows}` after
//! construction happens inside one routine, the reset of a dirty
//! component's resource nodes to virgin capacity — the solve that follows
//! writes only links of that component's member jobs, all of which were
//! just reset. That routine records each link it resets in a journal
//! ([`journal`](IncrementalEstimator::journal)), so a consumer that caches
//! anything derived from per-link flows or residuals (the placement path's
//! server index) re-reads exactly the journalled links and then calls
//! [`clear_journal`](IncrementalEstimator::clear_journal). A per-link mark
//! keeps each link in the journal at most once until cleared, so an
//! estimator nobody drains (the flow simulator's) holds at most
//! `num_links` entries however long it runs. PAT pools are not journalled.
//!
//! # Example
//!
//! ```
//! use netpack_topology::{Cluster, ClusterSpec, ServerId, JobId};
//! use netpack_model::Placement;
//! use netpack_waterfill::{estimate, IncrementalEstimator, PlacedJob};
//!
//! // Two racks of four servers; jobs in different racks share neither a
//! // link nor a PAT pool, so they never interact.
//! let cluster = Cluster::new(ClusterSpec {
//!     racks: 2,
//!     servers_per_rack: 4,
//!     ..ClusterSpec::paper_default()
//! });
//! let job = |id: u64, w: usize, ps: usize| PlacedJob::new(
//!     JobId(id),
//!     &cluster,
//!     &Placement::new(vec![(ServerId(w), 2)], Some(ServerId(ps))),
//! );
//! let running = [job(0, 0, 1)]; // rack 0
//! let mut inc = IncrementalEstimator::new(&cluster, &running);
//! inc.push(&cluster, job(1, 4, 5)); // rack 1
//! // Bit-identical to re-running Algorithm 1 from scratch:
//! let scratch = estimate(&cluster, &[job(0, 0, 1), job(1, 4, 5)]);
//! assert_eq!(inc.state().job_rate_gbps(JobId(1)), scratch.job_rate_gbps(JobId(1)));
//! // ...but the second job shares nothing with the first, so only one
//! // job was re-solved:
//! assert_eq!(inc.stats().jobs_resolved, 2); // 1 at new() + 1 at push()
//! assert_eq!(inc.stats().jobs_reused, 1);
//! ```

use crate::waterfill::{
    empty_state, link_capacity, partition_components, solve_component, Dsu, PlacedJob,
    SolveScratch,
};
use crate::SteadyState;
use netpack_topology::{Cluster, JobId};
use std::ops::{Add, Sub};

/// Work counters for one estimator instance.
///
/// `jobs_resolved + jobs_reused` over the estimator's lifetime equals the
/// total network-job work a from-scratch estimator would have done, so
/// `jobs_reused / (jobs_resolved + jobs_reused)` is the fraction of
/// water-filling work the cache saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaterfillStats {
    /// Incremental `push` calls served.
    pub pushes: u64,
    /// Incremental `remove` calls served.
    pub removes: u64,
    /// Network jobs actually water-filled (at construction and on
    /// pushes/removes).
    pub jobs_resolved: u64,
    /// Network jobs whose converged rates were kept from the snapshot
    /// instead of being re-solved.
    pub jobs_reused: u64,
    /// Resource-connected components re-solved.
    pub components_solved: u64,
    /// Filling rounds run by those solves.
    pub rounds: u64,
    /// Live-link entries the per-round sweeps read (share minimum,
    /// saturation check, recount after a PAT flip) — the solver's unit of
    /// work once frozen jobs and drained links drop out of a round.
    pub link_visits: u64,
    /// Solves that hit the round bound with jobs still unfrozen. Always 0
    /// unless the solver is broken: every round saturates a link or
    /// exhausts a PAT pool.
    pub unconverged: u64,
}

impl Add for WaterfillStats {
    type Output = WaterfillStats;

    fn add(self, other: WaterfillStats) -> WaterfillStats {
        WaterfillStats {
            pushes: self.pushes + other.pushes,
            removes: self.removes + other.removes,
            jobs_resolved: self.jobs_resolved + other.jobs_resolved,
            jobs_reused: self.jobs_reused + other.jobs_reused,
            components_solved: self.components_solved + other.components_solved,
            rounds: self.rounds + other.rounds,
            link_visits: self.link_visits + other.link_visits,
            unconverged: self.unconverged + other.unconverged,
        }
    }
}

/// Work done between two readings of one estimator's counters.
impl Sub for WaterfillStats {
    type Output = WaterfillStats;

    fn sub(self, before: WaterfillStats) -> WaterfillStats {
        WaterfillStats {
            pushes: self.pushes - before.pushes,
            removes: self.removes - before.removes,
            jobs_resolved: self.jobs_resolved - before.jobs_resolved,
            jobs_reused: self.jobs_reused - before.jobs_reused,
            components_solved: self.components_solved - before.components_solved,
            rounds: self.rounds - before.rounds,
            link_visits: self.link_visits - before.link_visits,
            unconverged: self.unconverged - before.unconverged,
        }
    }
}

/// Algorithm 1 with a warm cache: re-solves only the component a pushed
/// job touches.
///
/// See the [module docs](self) for the invalidation rules and the
/// bit-identical equivalence guarantee. All methods must be called with a
/// cluster topologically identical to the one passed to [`new`](Self::new).
#[derive(Debug, Clone)]
pub struct IncrementalEstimator {
    /// Every job seen so far, in insertion order (solve order).
    jobs: Vec<PlacedJob>,
    /// Per-job resource nodes; empty for local jobs.
    job_nodes: Vec<Vec<usize>>,
    /// Union-find over resource nodes (links, then rack PAT pools).
    dsu: Dsu,
    /// The converged steady state over all pushed jobs.
    state: SteadyState,
    stats: WaterfillStats,
    /// Count of jobs with at least one resource node, maintained on
    /// push/remove so the reuse accounting never rescans `job_nodes`.
    network_jobs: u64,
    /// Arena for the dirty component's member indices, reused across
    /// pushes so the placement hot loop allocates nothing here.
    scratch_members: Vec<usize>,
    /// Arena for the dirty component's resource nodes, ditto.
    scratch_dirty: Vec<usize>,
    /// The solver's arenas (two of them cluster-sized), ditto.
    scratch_solve: SolveScratch,
    /// Arena for the sub-components a removal splits its component into:
    /// `(root, member indices)`, inner lists kept across removals.
    scratch_groups: Vec<(usize, Vec<usize>)>,
    /// Links reset since the last [`clear_journal`](Self::clear_journal),
    /// each at most once (see the module docs).
    journal: Vec<u32>,
    /// `journalled[link]`: the link is already in `journal`.
    journalled: Vec<bool>,
}

impl IncrementalEstimator {
    /// Solve the steady state of `jobs` from scratch and snapshot it.
    pub fn new(cluster: &Cluster, jobs: &[PlacedJob]) -> Self {
        let mut state = empty_state(cluster, jobs);
        let mut stats = WaterfillStats::default();
        let mut scratch_solve = SolveScratch::new(cluster);
        for group in partition_components(cluster, jobs) {
            solve_component(cluster, jobs, &group, &mut state, &mut scratch_solve, &mut stats);
        }
        let mut dsu = Dsu::new(cluster.num_links() + cluster.num_racks());
        let mut job_nodes = Vec::with_capacity(jobs.len());
        for job in jobs {
            let nodes = job.resource_nodes(cluster);
            for w in nodes.windows(2) {
                dsu.union(w[0], w[1]);
            }
            job_nodes.push(nodes);
        }
        let network_jobs = job_nodes.iter().filter(|n| !n.is_empty()).count() as u64;
        IncrementalEstimator {
            jobs: jobs.to_vec(),
            job_nodes,
            dsu,
            state,
            stats,
            network_jobs,
            scratch_members: Vec::new(),
            scratch_dirty: Vec::new(),
            scratch_solve,
            scratch_groups: Vec::new(),
            journal: Vec::new(),
            journalled: vec![false; cluster.num_links()],
        }
    }

    /// The converged steady state over every job pushed so far.
    pub fn state(&self) -> &SteadyState {
        &self.state
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> &WaterfillStats {
        &self.stats
    }

    /// Number of jobs currently in the estimate.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Flat indices (`LinkId::index`) of the links whose flows or residual
    /// may have changed since construction or the last
    /// [`clear_journal`](Self::clear_journal) — every link of every
    /// component a push, pop, remove or replace re-solved — each listed
    /// once. At most `num_links` entries.
    pub fn journal(&self) -> &[u32] {
        &self.journal
    }

    /// Forget the journalled links: the caller has caught up with them.
    pub fn clear_journal(&mut self) {
        for &link in &self.journal {
            self.journalled[link as usize] = false;
        }
        self.journal.clear();
    }

    /// Return the resource nodes `dirty` to virgin capacity and journal the
    /// links among them — the only place cached link numbers are written
    /// outside the solve of the component `dirty` spans.
    fn reset_nodes(&mut self, cluster: &Cluster, dirty: &[usize]) {
        let n_links = cluster.num_links();
        for &node in dirty {
            if node < n_links {
                self.state.link_residual[node] = link_capacity(cluster, node);
                self.state.link_flows[node] = 0;
                if !std::mem::replace(&mut self.journalled[node], true) {
                    self.journal.push(node as u32);
                }
            } else {
                self.state.pat_residual[node - n_links] =
                    cluster.racks()[node - n_links].pat_gbps();
            }
        }
    }

    /// Add `job` and re-solve only the component it lands in.
    ///
    /// The resulting [`state`](Self::state) is bit-identical to
    /// `estimate(cluster, all_jobs_so_far)`.
    pub fn push(&mut self, cluster: &Cluster, job: PlacedJob) {
        self.stats.pushes += 1;
        self.state.job_shards.insert(job.id(), job.shards());
        let nodes = job.resource_nodes(cluster);
        if nodes.is_empty() {
            // Local job: infinite rate, touches nothing.
            self.state.job_rates.insert(job.id(), f64::INFINITY);
            self.stats.jobs_reused += self.network_jobs;
            self.jobs.push(job);
            self.job_nodes.push(nodes);
            return;
        }
        self.network_jobs += 1;
        for w in nodes.windows(2) {
            self.dsu.union(w[0], w[1]);
        }
        // Any node of the new job anchors its component; taken before the
        // push moves `nodes` (the empty case returned above).
        let anchor = nodes[0];
        self.jobs.push(job);
        self.job_nodes.push(nodes);

        // Member jobs of the (possibly merged) dirty component, in global
        // insertion order — the same order a from-scratch solve would use.
        let root = self.dsu.find(anchor);
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        for (i, nodes) in self.job_nodes.iter().enumerate() {
            if let Some(&first) = nodes.first() {
                if self.dsu.find(first) == root {
                    members.push(i);
                }
            }
        }

        // Reset exactly the dirty component's resources to virgin capacity;
        // resource nodes of other components are disjoint and untouched.
        let mut dirty = std::mem::take(&mut self.scratch_dirty);
        dirty.clear();
        dirty.extend(members.iter().flat_map(|&i| self.job_nodes[i].iter().copied()));
        dirty.sort_unstable();
        dirty.dedup();
        self.reset_nodes(cluster, &dirty);

        solve_component(
            cluster,
            &self.jobs,
            &members,
            &mut self.state,
            &mut self.scratch_solve,
            &mut self.stats,
        );
        self.stats.jobs_reused += self.network_jobs - members.len() as u64;
        self.scratch_members = members;
        self.scratch_dirty = dirty;
    }

    /// Remove the job `id` and re-solve only the component it leaves.
    ///
    /// The former component may split now that the removed job's resources
    /// no longer bridge its co-members; each surviving sub-component is
    /// re-filled from virgin capacity in global insertion order, so the
    /// resulting [`state`](Self::state) is bit-identical to
    /// `estimate(cluster, remaining_jobs_in_insertion_order)`. Returns
    /// `false` (and changes nothing) when `id` is not in the estimate.
    pub fn remove(&mut self, cluster: &Cluster, id: JobId) -> bool {
        let Some(idx) = self.jobs.iter().position(|j| j.id() == id) else {
            return false;
        };
        self.remove_at(cluster, idx);
        true
    }

    /// Remove the most recently pushed job — the exact inverse of
    /// [`push`](Self::push), which is what a depth-first search needs to
    /// backtrack one decision. Counted under
    /// [`removes`](WaterfillStats::removes). Returns the popped job's id,
    /// or `None` when the estimate is empty.
    pub fn pop(&mut self, cluster: &Cluster) -> Option<JobId> {
        let idx = self.jobs.len().checked_sub(1)?;
        let id = self.jobs[idx].id();
        self.remove_at(cluster, idx);
        Some(id)
    }

    fn remove_at(&mut self, cluster: &Cluster, idx: usize) {
        let id = self.jobs[idx].id();
        self.stats.removes += 1;
        // Take, don't clone: the slot is deleted below either way.
        let removed_nodes = std::mem::take(&mut self.job_nodes[idx]);
        // Pre-removal indices of the network jobs sharing the removed job's
        // component — the only jobs whose converged numbers can change.
        let mut co = std::mem::take(&mut self.scratch_members);
        co.clear();
        if !removed_nodes.is_empty() {
            let root = self.dsu.find(removed_nodes[0]);
            for (i, nodes) in self.job_nodes.iter().enumerate() {
                if i == idx {
                    continue;
                }
                if let Some(&first) = nodes.first() {
                    if self.dsu.find(first) == root {
                        co.push(i);
                    }
                }
            }
        }
        self.jobs.remove(idx);
        self.job_nodes.remove(idx);
        self.state.job_rates.remove(&id);
        self.state.job_shards.remove(&id);
        for i in &mut co {
            if *i > idx {
                *i -= 1;
            }
        }
        if removed_nodes.is_empty() {
            // Local job: it touched no resource, so every cached component
            // survives verbatim.
            self.stats.jobs_reused += self.network_jobs;
            self.scratch_members = co;
            return;
        }
        self.network_jobs -= 1;

        // The left component's nodes: the removed job's plus its
        // co-members'. Reset their resources to virgin capacity; nodes
        // only the removed job touched return to (and stay at) full
        // capacity, exactly as a from-scratch solve would leave them.
        let mut dirty = removed_nodes;
        dirty.extend(co.iter().flat_map(|&i| self.job_nodes[i].iter().copied()));
        dirty.sort_unstable();
        dirty.dedup();
        self.reset_nodes(cluster, &dirty);

        // Union-find supports no deletion, but components are
        // node-disjoint: no node outside the left component points into
        // it, so dissolving just these nodes and re-joining the surviving
        // co-members leaves every other component's forest untouched.
        for &node in &dirty {
            self.dsu.isolate(node);
        }
        for &i in &co {
            for w in self.job_nodes[i].windows(2) {
                self.dsu.union(w[0], w[1]);
            }
        }

        // Group the co-members by their new root (the component may have
        // split) and water-fill each sub-component; `co` is ascending, so
        // members stay in global insertion order within each group.
        let mut groups = std::mem::take(&mut self.scratch_groups);
        let mut used = 0;
        for &i in &co {
            let root = self.dsu.find(self.job_nodes[i][0]);
            match groups[..used].iter_mut().find(|(r, _)| *r == root) {
                Some((_, g)) => g.push(i),
                None => {
                    if used == groups.len() {
                        groups.push((root, Vec::new()));
                    }
                    groups[used].0 = root;
                    groups[used].1.clear();
                    groups[used].1.push(i);
                    used += 1;
                }
            }
        }
        for (_, group) in &groups[..used] {
            solve_component(
                cluster,
                &self.jobs,
                group,
                &mut self.state,
                &mut self.scratch_solve,
                &mut self.stats,
            );
        }
        self.stats.jobs_reused += self.network_jobs - co.len() as u64;
        self.scratch_members = co;
        self.scratch_groups = groups;
    }

    /// Re-tune a job in place: remove any existing job with `job`'s id,
    /// then push `job`. The result is bit-identical to a from-scratch
    /// solve over the current job list with the re-tuned job moved to the
    /// end of the insertion order.
    pub fn replace(&mut self, cluster: &Cluster, job: PlacedJob) {
        self.remove(cluster, job.id());
        self.push(cluster, job);
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate;
    use netpack_model::Placement;
    use netpack_topology::{ClusterSpec, JobId, RackId, ServerId};

    fn cluster(racks: usize, servers_per_rack: usize, pat: f64) -> Cluster {
        Cluster::new(ClusterSpec {
            racks,
            servers_per_rack,
            gpus_per_server: 4,
            server_link_gbps: 100.0,
            pat_gbps: pat,
            oversubscription: 1.0,
            rtt_us: 50.0,
            racks_per_pod: None,
        })
    }

    fn job(id: u64, c: &Cluster, workers: Vec<(usize, usize)>, ps: usize) -> PlacedJob {
        let p = Placement::new(
            workers.into_iter().map(|(s, w)| (ServerId(s), w)).collect(),
            Some(ServerId(ps)),
        );
        PlacedJob::new(JobId(id), c, &p)
    }

    /// Bitwise equality, including the NaN-free invariant.
    fn assert_state_eq(a: &SteadyState, b: &SteadyState) {
        assert_eq!(a.link_residual, b.link_residual);
        assert_eq!(a.link_flows, b.link_flows);
        assert_eq!(a.pat_residual, b.pat_residual);
        assert_eq!(a.job_shards, b.job_shards);
        assert_eq!(a.job_rates.len(), b.job_rates.len());
        for (id, rate) in &a.job_rates {
            let other = b.job_rates.get(id).copied();
            assert_eq!(Some(*rate), other, "rate mismatch for {id:?}");
        }
    }

    #[test]
    fn push_matches_from_scratch_bitwise() {
        let c = cluster(2, 4, 60.0);
        let all = [
            job(0, &c, vec![(0, 2), (4, 2)], 1),
            job(1, &c, vec![(2, 1), (5, 1)], 6),
            job(2, &c, vec![(3, 4)], 7),
            job(3, &c, vec![(1, 1), (2, 1)], 0),
        ];
        let mut inc = IncrementalEstimator::new(&c, &all[..1]);
        for k in 1..=all.len() {
            if k > 1 {
                inc.push(&c, all[k - 1].clone());
            }
            assert_state_eq(inc.state(), &estimate(&c, &all[..k]));
        }
    }

    #[test]
    fn untouched_component_is_not_resolved() {
        // Rack 0 and rack 1 jobs share no resource: pushing into rack 1
        // must not re-solve (or even re-read) the rack-0 component.
        let c = cluster(2, 3, 500.0);
        let a = job(0, &c, vec![(0, 1), (1, 1)], 2);
        let b = job(1, &c, vec![(3, 1), (4, 1)], 5);
        let mut inc = IncrementalEstimator::new(&c, std::slice::from_ref(&a));
        assert_eq!(inc.stats().jobs_resolved, 1);

        let rate_a_before = inc.state().job_rate_gbps(JobId(0));
        let rack0_pat_before = inc.state().pat_residual_gbps(RackId(0));
        inc.push(&c, b);

        // Only the new one-job component was water-filled...
        assert_eq!(inc.stats().pushes, 1);
        assert_eq!(inc.stats().jobs_resolved, 2);
        assert_eq!(inc.stats().jobs_reused, 1);
        assert_eq!(inc.stats().components_solved, 2);
        // ...and the cached component's numbers survived verbatim.
        assert_eq!(inc.state().job_rate_gbps(JobId(0)), rate_a_before);
        assert_eq!(inc.state().pat_residual_gbps(RackId(0)), rack0_pat_before);
    }

    #[test]
    fn push_merging_two_components_resolves_both() {
        // Jobs in racks 0 and 1; a third job spanning both racks merges
        // the components, so all three must be re-solved.
        let c = cluster(2, 3, 500.0);
        let a = job(0, &c, vec![(0, 1), (1, 1)], 2);
        let b = job(1, &c, vec![(3, 1), (4, 1)], 5);
        let bridge = job(2, &c, vec![(0, 1), (3, 1)], 1);
        let mut inc = IncrementalEstimator::new(&c, &[a.clone(), b.clone()]);
        assert_eq!(inc.stats().jobs_resolved, 2);
        inc.push(&c, bridge.clone());
        assert_eq!(inc.stats().jobs_resolved, 5, "merge must re-solve all 3");
        assert_state_eq(inc.state(), &estimate(&c, &[a, b, bridge]));
    }

    #[test]
    fn remove_matches_from_scratch_bitwise() {
        let c = cluster(2, 4, 60.0);
        let all = [
            job(0, &c, vec![(0, 2), (4, 2)], 1),
            job(1, &c, vec![(2, 1), (5, 1)], 6),
            job(2, &c, vec![(3, 4)], 7),
            job(3, &c, vec![(1, 1), (2, 1)], 0),
        ];
        let mut inc = IncrementalEstimator::new(&c, &all);
        // Remove the jobs one by one (middle-out) and check against a
        // from-scratch solve of the survivors after every step.
        assert!(inc.remove(&c, JobId(1)));
        assert_state_eq(
            inc.state(),
            &estimate(&c, &[all[0].clone(), all[2].clone(), all[3].clone()]),
        );
        assert!(inc.remove(&c, JobId(3)));
        assert_state_eq(inc.state(), &estimate(&c, &[all[0].clone(), all[2].clone()]));
        assert!(inc.remove(&c, JobId(0)));
        assert_state_eq(inc.state(), &estimate(&c, std::slice::from_ref(&all[2])));
        assert!(inc.remove(&c, JobId(2)));
        assert_state_eq(inc.state(), &estimate(&c, &[]));
        assert_eq!(inc.num_jobs(), 0);
        assert_eq!(inc.stats().removes, 4);
    }

    #[test]
    fn remove_unknown_job_is_a_noop() {
        let c = cluster(1, 3, 500.0);
        let a = job(0, &c, vec![(0, 1), (1, 1)], 2);
        let mut inc = IncrementalEstimator::new(&c, std::slice::from_ref(&a));
        let before = inc.state().clone();
        assert!(!inc.remove(&c, JobId(99)));
        assert_state_eq(inc.state(), &before);
        assert_eq!(inc.stats().removes, 0);
    }

    #[test]
    fn removing_a_bridge_splits_the_component() {
        // Jobs in racks 0 and 1 joined by a bridge job spanning both; when
        // the bridge finishes, the survivors re-solve as two components.
        let c = cluster(2, 3, 500.0);
        let a = job(0, &c, vec![(0, 1), (1, 1)], 2);
        let b = job(1, &c, vec![(3, 1), (4, 1)], 5);
        let bridge = job(2, &c, vec![(0, 1), (3, 1)], 1);
        let mut inc = IncrementalEstimator::new(&c, &[a.clone(), b.clone(), bridge]);
        let solved_before = inc.stats().components_solved;
        inc.remove(&c, JobId(2));
        assert_eq!(
            inc.stats().components_solved - solved_before,
            2,
            "the split must yield two independent re-solves"
        );
        assert_state_eq(inc.state(), &estimate(&c, &[a, b]));
    }

    #[test]
    fn remove_does_not_touch_disjoint_components() {
        let c = cluster(2, 3, 500.0);
        let a = job(0, &c, vec![(0, 1), (1, 1)], 2);
        let b = job(1, &c, vec![(3, 1), (4, 1)], 5);
        let mut inc = IncrementalEstimator::new(&c, &[a.clone(), b.clone()]);
        let rate_b = inc.state().job_rate_gbps(JobId(1));
        let resolved_before = inc.stats().jobs_resolved;
        inc.remove(&c, JobId(0));
        // Rack-1's component was reused verbatim, not re-filled.
        assert_eq!(inc.stats().jobs_resolved, resolved_before);
        assert_eq!(inc.stats().jobs_reused, 1);
        assert_eq!(inc.state().job_rate_gbps(JobId(1)), rate_b);
        assert_state_eq(inc.state(), &estimate(&c, std::slice::from_ref(&b)));
    }

    #[test]
    fn removing_a_local_job_costs_nothing() {
        let c = cluster(1, 3, 500.0);
        let net = job(0, &c, vec![(0, 1), (1, 1)], 2);
        let local = PlacedJob::new(JobId(9), &c, &Placement::local(ServerId(0), 4));
        let mut inc = IncrementalEstimator::new(&c, std::slice::from_ref(&net));
        inc.push(&c, local);
        let resolved_before = inc.stats().jobs_resolved;
        inc.remove(&c, JobId(9));
        assert_eq!(inc.stats().jobs_resolved, resolved_before);
        assert_state_eq(inc.state(), &estimate(&c, &[net]));
    }

    #[test]
    fn pop_is_the_exact_inverse_of_push() {
        // The exact placer's backtracking pattern: push a candidate, recurse,
        // pop. After every pop the state must be bit-identical to a
        // from-scratch solve over the surviving insertion order.
        let c = cluster(2, 4, 60.0);
        let base = [
            job(0, &c, vec![(0, 2), (4, 2)], 1),
            job(1, &c, vec![(2, 1), (5, 1)], 6),
        ];
        let mut inc = IncrementalEstimator::new(&c, &base);
        let snapshot = inc.state().clone();
        inc.push(&c, job(2, &c, vec![(3, 4)], 7));
        inc.push(&c, job(3, &c, vec![(1, 1), (2, 1)], 0));
        assert_eq!(inc.pop(&c), Some(JobId(3)));
        assert_state_eq(
            inc.state(),
            &estimate(&c, &[base[0].clone(), base[1].clone(), job(2, &c, vec![(3, 4)], 7)]),
        );
        assert_eq!(inc.pop(&c), Some(JobId(2)));
        assert_state_eq(inc.state(), &snapshot);
        assert_eq!(inc.num_jobs(), 2);
        assert_eq!(inc.stats().removes, 2);
    }

    #[test]
    fn pop_on_empty_returns_none() {
        let c = cluster(1, 3, 500.0);
        let mut inc = IncrementalEstimator::new(&c, &[]);
        assert_eq!(inc.pop(&c), None);
        assert_eq!(inc.stats().removes, 0);
    }

    #[test]
    fn replace_retunes_a_job_in_place() {
        let c = cluster(1, 4, 500.0);
        let a = job(0, &c, vec![(0, 1), (1, 1)], 2);
        let b = job(1, &c, vec![(0, 2)], 3);
        let mut inc = IncrementalEstimator::new(&c, &[a, b.clone()]);
        // Job 0 migrates to a different worker set.
        let moved = job(0, &c, vec![(2, 1), (3, 1)], 1);
        inc.replace(&c, moved.clone());
        assert_eq!(inc.num_jobs(), 2);
        // Equivalent from-scratch order: survivors first, replaced job last.
        assert_state_eq(inc.state(), &estimate(&c, &[b, moved]));
    }

    #[test]
    fn local_jobs_cost_nothing() {
        let c = cluster(1, 3, 500.0);
        let net = job(0, &c, vec![(0, 1), (1, 1)], 2);
        let mut inc = IncrementalEstimator::new(&c, std::slice::from_ref(&net));
        let local = PlacedJob::new(JobId(9), &c, &Placement::local(ServerId(0), 4));
        inc.push(&c, local);
        assert_eq!(inc.stats().jobs_resolved, 1);
        assert_eq!(inc.stats().components_solved, 1);
        assert_eq!(inc.state().job_rate_gbps(JobId(9)), Some(f64::INFINITY));
        assert_eq!(inc.num_jobs(), 2);
        assert_state_eq(
            inc.state(),
            &estimate(
                &c,
                &[net, PlacedJob::new(JobId(9), &c, &Placement::local(ServerId(0), 4))],
            ),
        );
    }
}
