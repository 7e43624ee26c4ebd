//! Exact joint placement — the optimality reference standing in for the
//! paper's Gurobi MIP (§5.1).
//!
//! The paper formulates batch placement as a MIP (Table 3) whose objective
//! is the total communication time `Σ_j d^(j) / v^(j)` and reports that
//! Gurobi needs hours at scale. This module explores the same decision
//! space — per-server worker counts, PS location, per-job INA flag — and
//! evaluates complete assignments with the water-filling steady-state
//! model. It is exact with respect to our evaluation model and only
//! feasible at toy scale, which is precisely its role: measuring the DP
//! heuristic's optimality gap, and demonstrating the exponential blow-up
//! that motivates the DP.
//!
//! The search is one depth-first branch-and-bound on the caller's thread:
//! the objective is maintained incrementally ([`IncrementalEstimator`]
//! push/pop per decision), subtrees whose admissible lower bound cannot
//! beat the incumbent are cut, and symmetric assignments (permutations
//! over interchangeable servers) are collapsed to canonical
//! representatives. With one incumbent and one leaf count, the answer and
//! the work counters depend on the instance and the budget alone.
//!
//! It returns the **same** placement as the exhaustive DFS it replaced —
//! the first-enumerated optimum in that DFS's order, bit-identical
//! objective included. The DFS stays in the library as the oracle
//! [`reference::place_exact`](crate::reference::place_exact), reached only
//! by calling it. DESIGN.md §3.10 derives the bound, argues its
//! admissibility under water-filling, and gives the symmetry and
//! tie-break arguments; the `tests/exact_bnb.rs` suite pins the
//! equivalence on 2 003 random instances.

use crate::placer::{BatchOutcome, Placer, RunningJob};
use crate::reference::Incumbent;
use netpack_metrics::{PerfCounters, Stopwatch};
use netpack_model::Placement;
use netpack_topology::{Cluster, ServerId};
use netpack_waterfill::{estimate, IncrementalEstimator, PlacedJob};
use netpack_workload::Job;
use std::ops::ControlFlow;

/// Exhaustive-search placer for toy instances.
#[derive(Debug, Clone)]
pub struct ExactPlacer {
    max_evaluations: u64,
    enumerate_ina: bool,
    evaluations: u64,
    perf: PerfCounters,
}

impl ExactPlacer {
    /// Exact placer that gives up (deferring the whole batch) after
    /// `max_evaluations` candidate assignments.
    pub fn new(max_evaluations: u64) -> Self {
        ExactPlacer {
            max_evaluations,
            enumerate_ina: false,
            evaluations: 0,
            perf: PerfCounters::new(),
        }
    }

    /// Also branch on each job's INA flag (doubles the space per job;
    /// off by default because INA-on dominates whenever PAT is plentiful).
    pub fn enumerate_ina(mut self, yes: bool) -> Self {
        self.enumerate_ina = yes;
        self
    }

    /// Number of complete assignments evaluated by the last
    /// [`Placer::place_batch`] call. Pruned subtrees never reach a leaf,
    /// so this is typically orders of magnitude below the exhaustive
    /// reference's count for the same instance.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Perf counters accumulated across `place_batch` calls: search nodes
    /// visited (`exact_nodes`), leaves evaluated (`exact_leaf_evals`),
    /// subtrees cut by the bound (`exact_pruned_subtrees`), symmetric PS
    /// candidates skipped (`exact_sym_ps_skips`), and the water-filling
    /// work counters, plus the `place_batch` wall-clock timer.
    pub fn perf(&self) -> &PerfCounters {
        &self.perf
    }

    /// Take ownership of the accumulated perf counters, resetting them.
    pub fn take_perf(&mut self) -> PerfCounters {
        std::mem::take(&mut self.perf)
    }

    fn place_bnb(
        &mut self,
        cluster: &Cluster,
        running: &[RunningJob],
        batch: &[Job],
    ) -> Option<Incumbent> {
        let mut touched = vec![0u32; cluster.num_servers()];
        for r in running {
            for &(s, _) in r.placement.workers() {
                touched[s.0] += 1;
            }
            for &s in r.placement.pses() {
                touched[s.0] += 1;
            }
        }
        // Convert the running jobs once per batch; the exhaustive reference
        // re-does it at every leaf.
        let running_placed: Vec<PlacedJob> = running.iter().map(|r| r.to_placed(cluster)).collect();
        let mut search = Search {
            cluster,
            batch,
            enumerate_ina: self.enumerate_ina,
            max_evaluations: self.max_evaluations,
            link_gbps: cluster.spec().server_link_gbps,
            rack_of: cluster.servers().iter().map(|s| s.rack().0).collect(),
            free: cluster.servers().iter().map(|s| s.gpus_free()).collect(),
            touched,
            inc: IncrementalEstimator::new(cluster, &running_placed),
            current: Vec::with_capacity(batch.len()),
            solo: Vec::with_capacity(batch.len()),
            best: None,
            stats: BnbStats::default(),
        };
        let _ = search.dfs(0);
        let (stats, wf) = (search.stats, *search.inc.stats());
        self.evaluations = stats.leaves;
        self.perf.incr("exact_nodes", stats.nodes);
        self.perf.incr("exact_leaf_evals", stats.leaves);
        self.perf.incr("exact_pruned_subtrees", stats.pruned);
        self.perf.incr("exact_sym_ps_skips", stats.sym_ps_skips);
        self.perf.incr("waterfill_jobs_resolved", wf.jobs_resolved);
        self.perf.incr("waterfill_jobs_reused", wf.jobs_reused);
        self.perf
            .incr("waterfill_components_solved", wf.components_solved);
        search.best
    }
}

impl Default for ExactPlacer {
    fn default() -> Self {
        ExactPlacer::new(2_000_000)
    }
}

impl Placer for ExactPlacer {
    fn name(&self) -> &'static str {
        "Exact"
    }

    fn place_batch(
        &mut self,
        cluster: &Cluster,
        running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        let watch = Stopwatch::start();
        let best = self.place_bnb(cluster, running, batch);
        self.perf.record("place_batch", watch.elapsed());
        match best {
            Some((_, placed)) => BatchOutcome {
                placed,
                deferred: Vec::new(),
            },
            None => BatchOutcome {
                placed: Vec::new(),
                deferred: batch.to_vec(),
            },
        }
    }
}

/// The INA flags to branch on for a split of `num_servers` servers.
pub(crate) fn ina_options(enumerate_ina: bool, num_servers: usize) -> &'static [bool] {
    if enumerate_ina && num_servers > 1 {
        &[true, false]
    } else {
        &[true]
    }
}

/// Callback enumeration of worker splits of `gpus` over `free` capacities:
/// servers ascend, take counts descend per server, with a suffix-capacity
/// feasibility prune — exactly the order the exhaustive reference's
/// `worker_splits` materializes, but allocation-free for the
/// branch-and-bound hot loop.
///
/// With `class` set (`class[s]` = the smallest earlier server
/// interchangeable with `s`, or `s` itself), only canonical splits are
/// yielded: within a symmetry class, take counts must be non-increasing in
/// server order. Every suppressed split is a within-class permutation of a
/// canonical one, and because takes descend, the canonical member is the
/// first of its orbit in the unrestricted enumeration order (DESIGN.md
/// §3.10).
/// Visitor over one worker split: return `Break` to stop the enumeration.
type SplitVisitor<'v> = dyn FnMut(&[(ServerId, usize)]) -> ControlFlow<()> + 'v;

pub(crate) fn for_each_split(
    free: &[usize],
    class: Option<&[usize]>,
    gpus: usize,
    f: &mut SplitVisitor<'_>,
) -> ControlFlow<()> {
    // suffix[i] = total free GPUs on servers i.. (feasibility prune).
    let mut suffix = vec![0usize; free.len() + 1];
    for i in (0..free.len()).rev() {
        suffix[i] = suffix[i + 1] + free[i];
    }
    let mut current: Vec<(ServerId, usize)> = Vec::new();
    let mut last_take = vec![usize::MAX; free.len()];
    split_rec(
        free,
        class,
        &suffix,
        0,
        gpus,
        &mut current,
        &mut last_take,
        f,
    )
}

#[allow(clippy::too_many_arguments)]
fn split_rec(
    free: &[usize],
    class: Option<&[usize]>,
    suffix: &[usize],
    idx: usize,
    remaining: usize,
    current: &mut Vec<(ServerId, usize)>,
    last_take: &mut [usize],
    f: &mut SplitVisitor<'_>,
) -> ControlFlow<()> {
    if remaining == 0 {
        return f(current);
    }
    if idx == free.len() || suffix[idx] < remaining {
        return ControlFlow::Continue(());
    }
    let rep = class.map_or(idx, |c| c[idx]);
    let mut cap = free[idx].min(remaining);
    if rep != idx {
        // Canonical form: never take more than the previous member of the
        // same symmetry class.
        cap = cap.min(last_take[rep]);
    }
    for take in (0..=cap).rev() {
        if take > 0 {
            current.push((ServerId(idx), take));
        }
        let saved = last_take[rep];
        last_take[rep] = take;
        let flow = split_rec(
            free,
            class,
            suffix,
            idx + 1,
            remaining - take,
            current,
            last_take,
            f,
        );
        last_take[rep] = saved;
        if take > 0 {
            current.pop();
        }
        flow?;
    }
    ControlFlow::Continue(())
}

/// Group servers into interchangeability classes for the current residual
/// state: `class[s]` is the smallest server in the same rack with the same
/// free-GPU count that no running or committed placement touches (or `s`
/// itself). Two such servers are related by a topology automorphism that
/// fixes every placed job, so swapping them permutes assignments without
/// changing any water-filled number — the symmetry the canonical-split and
/// PS-dedup rules exploit.
fn symmetry_classes(rack_of: &[usize], free: &[usize], touched: &[u32]) -> Vec<usize> {
    let n = free.len();
    let mut class: Vec<usize> = (0..n).collect();
    for i in 0..n {
        if touched[i] != 0 {
            continue;
        }
        for j in 0..i {
            if touched[j] == 0 && rack_of[j] == rack_of[i] && free[j] == free[i] {
                class[i] = j;
                break;
            }
        }
    }
    class
}

/// PS candidates for `split`, in server order, with symmetric duplicates
/// removed: a server is skipped when an earlier server of the same class
/// hosts the same worker take (0 for non-workers), because swapping the
/// two maps the candidate onto the earlier, already-enumerated one.
fn ps_candidates(
    split: &[(ServerId, usize)],
    classes: &[usize],
    num_servers: usize,
    stats: &mut BnbStats,
) -> Vec<Option<ServerId>> {
    if split.len() == 1 {
        return vec![None];
    }
    let mut take = vec![0usize; num_servers];
    for &(s, w) in split {
        take[s.0] = w;
    }
    let mut out = Vec::with_capacity(num_servers);
    let mut seen: Vec<(usize, usize)> = Vec::with_capacity(num_servers);
    for s in 0..num_servers {
        let key = (classes[s], take[s]);
        if seen.contains(&key) {
            stats.sym_ps_skips += 1;
            continue;
        }
        seen.push(key);
        out.push(Some(ServerId(s)));
    }
    out
}

/// Search-work counters of one `place_batch` call.
#[derive(Debug, Clone, Copy, Default)]
struct BnbStats {
    nodes: u64,
    leaves: u64,
    pruned: u64,
    sym_ps_skips: u64,
}

/// One search: the instance, a free-GPU ledger (no panicking `Cluster`
/// allocate/release round-trips), touch counts for symmetry detection,
/// the live incremental estimator, the assignment so far with each
/// committed job's solo comm time, and the incumbent.
struct Search<'a> {
    cluster: &'a Cluster,
    batch: &'a [Job],
    enumerate_ina: bool,
    max_evaluations: u64,
    link_gbps: f64,
    rack_of: Vec<usize>,
    free: Vec<usize>,
    touched: Vec<u32>,
    inc: IncrementalEstimator,
    current: Vec<(Job, Placement)>,
    /// Comm time of each job of `current` alone in the idle cluster: a
    /// floor under its comm time in any leaf below.
    solo: Vec<f64>,
    best: Option<Incumbent>,
    stats: BnbStats,
}

impl Search<'_> {
    /// Committed jobs' objective from the live estimator — the same value,
    /// to the bit, as the reference leaf's `batch_comm_time_s`, because the
    /// incremental state is bit-identical to a from-scratch solve and the
    /// sum runs in the same (placement) order.
    fn partial_objective(&self) -> f64 {
        let state = self.inc.state();
        let mut total = 0.0;
        for ((job, _), &floor) in self.current.iter().zip(&self.solo) {
            let time = state
                .comm_time_s(job.id, job.gradient_gbits())
                .unwrap_or(f64::INFINITY);
            debug_assert!(
                time >= floor,
                "job {:?} beats its solo comm time: {time} < {floor}",
                job.id
            );
            total += time;
        }
        total
    }

    /// Admissible lower bound for completing the assignment from job `idx`:
    /// each committed job's solo comm time (no job's max-min rate exceeds
    /// its rate alone in the idle cluster, whatever else is placed) plus
    /// each unplaced job's zero-contention best case — 0 if it could still
    /// fit on one server, else one access-link traversal. The committed
    /// jobs' current objective is no floor: a job placed later can speed
    /// one up (DESIGN.md §3.10).
    fn bound_from(&self, idx: usize) -> f64 {
        let max_free = self.free.iter().copied().max().unwrap_or(0);
        let mut bound = 0.0;
        for &floor in &self.solo {
            bound += floor;
        }
        for job in &self.batch[idx..] {
            if job.gpus > max_free {
                bound += job.gradient_gbits() / self.link_gbps;
            }
        }
        bound
    }

    fn dfs(&mut self, idx: usize) -> ControlFlow<()> {
        // A spent budget stops the search with the incumbent intact, where
        // the reference stops too.
        if self.stats.leaves >= self.max_evaluations {
            return ControlFlow::Break(());
        }
        self.stats.nodes += 1;
        if idx == self.batch.len() {
            self.stats.leaves += 1;
            let partial = self.partial_objective();
            if self.best.as_ref().is_none_or(|(b, _)| partial < *b) {
                self.best = Some((partial, self.current.clone()));
            }
            return ControlFlow::Continue(());
        }
        // `>=` keeps the first-enumerated optimum: an equal-bound subtree
        // holds no strictly better leaf, and the incumbent, replaced only
        // by a strictly better leaf, precedes the subtree in enumeration
        // order.
        let bound = self.bound_from(idx);
        if self.best.as_ref().is_some_and(|(b, _)| bound >= *b) {
            self.stats.pruned += 1;
            return ControlFlow::Continue(());
        }
        let job = self.batch[idx].clone();
        let snapshot = self.free.clone();
        let classes = symmetry_classes(&self.rack_of, &snapshot, &self.touched);
        for_each_split(&snapshot, Some(&classes), job.gpus, &mut |split| {
            let candidates = ps_candidates(split, &classes, snapshot.len(), &mut self.stats);
            for ps in candidates {
                for &ina in ina_options(self.enumerate_ina, split.len()) {
                    let mut placement = Placement::new(split.to_vec(), ps);
                    placement.set_ina_enabled(ina);
                    self.apply(&job, placement);
                    let flow = self.dfs(idx + 1);
                    self.unapply();
                    flow?;
                }
            }
            ControlFlow::Continue(())
        })
    }

    fn apply(&mut self, job: &Job, placement: Placement) {
        for &(s, w) in placement.workers() {
            self.free[s.0] -= w;
            self.touched[s.0] += 1;
        }
        for &s in placement.pses() {
            self.touched[s.0] += 1;
        }
        let placed = PlacedJob::new(job.id, self.cluster, &placement);
        let solo = estimate(self.cluster, std::slice::from_ref(&placed))
            .comm_time_s(job.id, job.gradient_gbits())
            .unwrap_or(0.0);
        self.inc.push(self.cluster, placed);
        self.current.push((job.clone(), placement));
        self.solo.push(solo);
    }

    fn unapply(&mut self) {
        if let Some((_, placement)) = self.current.pop() {
            self.solo.pop();
            self.inc.pop(self.cluster);
            for &(s, w) in placement.workers() {
                self.free[s.0] += w;
                self.touched[s.0] -= 1;
            }
            for &s in placement.pses() {
                self.touched[s.0] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use netpack_topology::{ClusterSpec, JobId};
    use netpack_workload::ModelKind;

    fn cluster(servers: usize, gpus: usize) -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: servers,
            gpus_per_server: gpus,
            ..ClusterSpec::paper_default()
        })
    }

    fn job(id: u64, gpus: usize) -> Job {
        Job::builder(JobId(id), ModelKind::Vgg16, gpus).build()
    }

    /// One search's `(label, placements, leaves evaluated)`.
    type Outcome = (&'static str, Vec<(Job, Placement)>, u64);

    /// The branch-and-bound and the exhaustive reference on the empty
    /// cluster `c`; a search that reached no complete assignment places
    /// nothing.
    fn both_searches(c: &Cluster, batch: &[Job], budget: u64) -> [Outcome; 2] {
        let mut p = ExactPlacer::new(budget);
        let out = p.place_batch(c, &[], batch);
        let (best, evals) = reference::place_exact(c, &[], batch, false, budget);
        let reference = best.map(|(_, placed)| placed).unwrap_or_default();
        [
            ("bnb", out.placed, p.evaluations()),
            ("reference", reference, evals),
        ]
    }

    const BUDGET: u64 = 2_000_000;

    #[test]
    fn exact_prefers_local_placement_when_possible() {
        let c = cluster(3, 4);
        for (_, placed, evaluations) in both_searches(&c, &[job(0, 4)], BUDGET) {
            assert_eq!(placed.len(), 1);
            // A local placement has zero communication time: strictly optimal.
            assert!(placed[0].1.is_local());
            assert!(evaluations > 0);
        }
    }

    #[test]
    fn exact_separates_two_jobs_onto_disjoint_bottlenecks() {
        let c = cluster(4, 1);
        // Two 2-GPU jobs on four 1-GPU servers: each must span two servers
        // with a PS; the optimum avoids stacking both PSes on one link.
        for (_, placed, _) in both_searches(&c, &[job(0, 2), job(1, 2)], BUDGET) {
            assert_eq!(placed.len(), 2);
            let ps0 = placed[0].1.ps().unwrap();
            let ps1 = placed[1].1.ps().unwrap();
            assert_ne!(ps0, ps1, "optimal plan spreads PS load");
            for (j, placement) in &placed {
                placement.validate(&c, j.gpus).unwrap();
            }
        }
    }

    #[test]
    fn exact_keeps_the_first_enumerated_optimum() {
        // Many placements tie at 0 s on an empty symmetric cluster; the
        // documented tie-break (first-found in the reference's enumeration
        // order) pins all GPUs on server 0 — in both searches, pinning the
        // canonical representative choice of the symmetry breaker too.
        let c = cluster(3, 4);
        for (search, placed, _) in both_searches(&c, &[job(0, 2)], BUDGET) {
            assert_eq!(
                placed[0].1.workers(),
                &[(ServerId(0), 2)],
                "{search} must keep the first-enumerated optimum"
            );
        }
    }

    #[test]
    fn canonical_splits_collapse_interchangeable_servers() {
        // All three servers are interchangeable (same rack, same free, no
        // placements): the canonical enumeration keeps exactly (2) on
        // server 0 and (1,1) on servers 0+1.
        let classes = symmetry_classes(&[0, 0, 0], &[2, 2, 2], &[0, 0, 0]);
        assert_eq!(classes, vec![0, 0, 0]);
        let mut kept = Vec::new();
        let _ = for_each_split(&[2, 2, 2], Some(&classes), 2, &mut |split| {
            kept.push(split.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(
            kept,
            vec![
                vec![(ServerId(0), 2)],
                vec![(ServerId(0), 1), (ServerId(1), 1)],
            ]
        );
    }

    #[test]
    fn touched_servers_break_symmetry() {
        // Server 1 is touched by a running job: it is not interchangeable
        // with servers 0/2, so splits over it survive.
        let classes = symmetry_classes(&[0, 0, 0], &[2, 2, 2], &[0, 1, 0]);
        assert_eq!(classes, vec![0, 1, 0]);
        let mut kept = 0;
        let _ = for_each_split(&[2, 2, 2], Some(&classes), 2, &mut |_| {
            kept += 1;
            ControlFlow::Continue(())
        });
        // (2@0), (1@0,1@1), (1@0,1@2), (2@1) survive; (2@2) and (1@1,1@2)
        // collapse onto earlier splits via the 0<->2 swap.
        assert_eq!(kept, 4);
    }

    #[test]
    fn evaluation_budget_is_respected() {
        let c = cluster(4, 2);
        for (search, _, evaluations) in both_searches(&c, &[job(0, 2), job(1, 2)], 10) {
            assert!(evaluations <= 10, "{search}");
        }
    }

    #[test]
    fn infeasible_batch_is_deferred() {
        let c = cluster(2, 1);
        let batch = [job(0, 5)];
        let out = ExactPlacer::default().place_batch(&c, &[], &batch);
        assert!(out.placed.is_empty());
        assert_eq!(out.deferred.len(), 1);
        assert!(reference::place_exact(&c, &[], &batch, false, BUDGET)
            .0
            .is_none());
    }

    #[test]
    fn bnb_prunes_and_collapses_work() {
        let c = cluster(4, 2);
        let batch = [job(0, 3), job(1, 3), job(2, 2)];
        let (_, scratch_evaluations) = reference::place_exact(&c, &[], &batch, false, BUDGET);
        let mut bnb = ExactPlacer::default();
        bnb.place_batch(&c, &[], &batch);
        assert!(
            bnb.evaluations() < scratch_evaluations,
            "bnb must evaluate fewer leaves ({} vs {scratch_evaluations})",
            bnb.evaluations(),
        );
        assert!(bnb.perf().counter("exact_pruned_subtrees") > 0);
        assert!(bnb.perf().counter("exact_sym_ps_skips") > 0);
        assert_eq!(bnb.perf().timer_count("place_batch"), 1);
    }

    /// The §5.1 table's `5x2 / 3+3+2` row: one thread and one incumbent
    /// make the search's work a function of the instance, so its counts
    /// are pinned. A change of mechanism that keeps the answer may lower
    /// them, never raise them.
    #[test]
    fn the_section_5_1_row_does_the_pinned_work() {
        let c = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 5,
            gpus_per_server: 2,
            pat_gbps: 50.0,
            ..ClusterSpec::paper_default()
        });
        let mut bnb = ExactPlacer::new(50_000_000);
        bnb.place_batch(&c, &[], &[job(0, 3), job(1, 3), job(2, 2)]);
        let work = (
            bnb.evaluations(),
            bnb.perf().counter("exact_nodes"),
            bnb.perf().counter("exact_pruned_subtrees"),
        );
        assert_eq!(work, (1_715, 1_931, 97));
    }
}
