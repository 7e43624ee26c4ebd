//! The literal algorithms production is checked against. No configuration
//! field or environment variable selects this code; tests call the two
//! entry points directly.
//!
//! [`place_batch`] is Algorithm 2 exactly as the paper writes it — the
//! oracle for [`NetPackPlacer::place_batch`](crate::Placer::place_batch)
//! and [`NetPackSession`](crate::NetPackSession). One job at a time over a
//! cloned [`Cluster`]: Algorithm 1 re-run from scratch before every job
//! (line 7), every server offered to the candidate filter, every
//! `(plan, server)` pair scored in one nested loop. It shares
//! `hotspot_term`, `enable_ina`, `server_value`, [`CandidateFilter`] and
//! [`WorkerDp`] with production, so the two must return **bit-identical**
//! placements, deferrals and objective — pinned by the
//! `production_matches_reference` property suite and the root `oracles`
//! test, whose cells include a 160-server `fig10_xl` tree.
//!
//! [`place_exact`] is the exhaustive DFS over the exact placer's decision
//! space — the oracle for [`ExactPlacer`](crate::ExactPlacer)'s
//! branch-and-bound, pinned by `tests/exact_bnb.rs` and the root
//! `oracles` test on a `table_mip_vs_dp` row.

use crate::dp::{ServerStats, WorkerDp, WorkerPlan};
use crate::exact::{for_each_split, ina_options};
use crate::knapsack::subset_in_placement_order;
use crate::netpack::{NetPackConfig, NetPackPlacer};
use crate::placer::{BatchOutcome, RunningJob};
use crate::select::CandidateFilter;
use netpack_model::Placement;
use netpack_topology::{Cluster, RackId, ServerId};
use netpack_waterfill::{estimate, PlacedJob, SteadyState};
use netpack_workload::Job;
use std::ops::ControlFlow;

/// Place `batch` with the literal algorithm under `config`.
pub fn place_batch(
    config: &NetPackConfig,
    cluster: &Cluster,
    running: &[RunningJob],
    batch: &[Job],
) -> BatchOutcome {
    let placer = NetPackPlacer::new(config.clone());
    let mut outcome = BatchOutcome::default();
    // Step 1: FindSubset, then value-descending placement order.
    let ordered = subset_in_placement_order(batch, cluster.free_gpus(), &mut outcome.deferred);

    let mut scratch = cluster.clone();
    let mut active: Vec<PlacedJob> = running.iter().map(|r| r.to_placed(cluster)).collect();
    for job in ordered {
        // Steps 2-3 need the current steady state (rerun per job: the
        // fair shares shift as the batch lands, Algorithm 2 line 7).
        let state = estimate(&scratch, &active);
        match placer.place_one(&scratch, &state, job) {
            Some(placement) => {
                for &(s, w) in placement.workers() {
                    scratch
                        .allocate_gpus(s, w)
                        // netpack-lint: allow(E1): the DP only plans over each server's free GPUs on this same scratch ledger and surplus release only lowers a worker count, so the allocation cannot be refused
                        .expect("DP placed within free GPUs");
                }
                active.push(PlacedJob::new(job.id, &scratch, &placement));
                outcome.placed.push((job.clone(), placement));
            }
            None => outcome.deferred.push(job.clone()),
        }
    }
    // Step 4: selective INA enabling across the new placements, over the
    // from-scratch steady state of running + batch (batch still INA-on).
    let state = estimate(cluster, &active);
    placer.enable_ina(cluster, running, &mut outcome.placed, &state);
    outcome
}

impl NetPackPlacer {
    /// Place the workers and PS of one job. Requires a fresh steady-state
    /// estimate of the scratch cluster. Returns `None` if the job cannot
    /// be covered by the free GPUs.
    fn place_one(&self, scratch: &Cluster, state: &SteadyState, job: &Job) -> Option<Placement> {
        // Single-server shortcut (lines 4-6): prefer the tightest fit,
        // breaking ties toward the most residual bandwidth.
        let single = scratch
            .servers()
            .iter()
            .filter(|s| s.gpus_free() >= job.gpus)
            .min_by(|a, b| {
                (a.gpus_free() - job.gpus)
                    .cmp(&(b.gpus_free() - job.gpus))
                    .then_with(|| {
                        state
                            .server_available_gbps(b.id())
                            .total_cmp(&state.server_available_gbps(a.id()))
                    })
            });
        if let Some(server) = single {
            return Some(Placement::local(server.id(), job.gpus));
        }

        // WorkerPlacement DP over servers with free GPUs, pruned to the
        // per-class top-K that can appear in any optimal `V[s][f][g]` cell
        // (see [`CandidateFilter`]). Production runs the same filter, so
        // the DP inputs — and hence placements — stay bit-identical by
        // construction.
        let capacity = scratch.spec().server_link_gbps;
        let slack = scratch.spec().gpus_per_server;
        let fs_max = self.config.fs_max;
        let mut filter = CandidateFilter::new(
            scratch.spec().gpus_per_server,
            job.gpus,
            slack,
            Some(fs_max),
        );
        for s in scratch.servers() {
            let avail = state.server_available_gbps(s.id());
            let flows = state.server_flows(s.id());
            filter.offer(ServerStats {
                id: s.id(),
                gpus_free: s.gpus_free(),
                value: Self::server_value(capacity, avail, flows),
                flows,
            });
        }
        let stats = filter.candidates();
        let plans = WorkerDp::new(fs_max).plans(&stats, job.gpus, slack);
        if plans.is_empty() {
            return None;
        }

        // PSPlacement: exhaust (plan, server) pairs.
        let (_, pi, ps) = self.score_plans_sequential(scratch, state, capacity, &plans)?;
        let plan = &plans[pi];

        // Gradient sharding: rank PS candidates for the winning plan and
        // take the k best distinct locations (k = 1 reproduces Algorithm 2
        // exactly, returning `ps` itself).
        let pses = if self.config.pses_per_job <= 1 {
            vec![ps]
        } else {
            let mut chosen_mask = vec![false; scratch.num_servers()];
            for s in &plan.servers {
                chosen_mask[s.0] = true;
            }
            let rack_workers = Self::plan_rack_workers(scratch, plan);
            let mut scored: Vec<(f64, ServerId)> = scratch
                .servers()
                .iter()
                .map(|server| {
                    let sid = server.id();
                    let eps: u32 = u32::from(!chosen_mask[sid.0]);
                    let own_workers = if chosen_mask[sid.0] {
                        server.gpus_free() as u32
                    } else {
                        0
                    };
                    let s_flows = state.server_flows(sid) + own_workers;
                    let f_max = plan.max_flows.max(s_flows + eps);
                    let avail = state.server_available_gbps(sid);
                    let base =
                        plan.value + avail - (capacity - avail) / (f64::from(s_flows + eps) + 1.0);
                    let term = self.hotspot_term(scratch, state, &rack_workers, sid, f_max);
                    (base + term, sid)
                })
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            scored
                .into_iter()
                .take(self.config.pses_per_job)
                .map(|(_, sid)| sid)
                .collect()
        };

        // Materialize: every free GPU of each chosen server, then release
        // the surplus starting from the least-loaded chosen server.
        let mut workers: Vec<(ServerId, usize)> = plan
            .servers
            .iter()
            .map(|&s| (s, scratch.servers()[s.0].gpus_free()))
            .collect();
        let mut surplus = plan.gpus.checked_sub(job.gpus)?;
        while surplus > 0 {
            // Release from the PS's own server first — every worker taken
            // off it is one fewer flow sharing the PS's access link — then
            // from the least-loaded (largest-contribution) server.
            let idx = match workers.iter().position(|&(s, w)| s == ps && w > 0) {
                Some(i) => i,
                None => workers
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &(_, w))| w)
                    .map(|(i, _)| i)?,
            };
            let take = workers[idx].1.min(surplus);
            workers[idx].1 -= take;
            surplus -= take;
            if workers[idx].1 == 0 {
                workers.remove(idx);
            }
        }
        Some(Placement::new_sharded(workers, pses))
    }

    /// Per-rack worker totals of one candidate plan, in first-seen order
    /// (the oversubscription term's input).
    fn plan_rack_workers(scratch: &Cluster, plan: &WorkerPlan) -> Vec<(RackId, u32)> {
        let mut rack_workers: Vec<(RackId, u32)> = Vec::new();
        for &sid in &plan.servers {
            let r = scratch.rack_of(sid);
            let w = scratch.servers()[sid.0].gpus_free() as u32;
            match rack_workers.iter_mut().find(|(rr, _)| *rr == r) {
                Some(e) => e.1 += w,
                None => rack_workers.push((r, w)),
            }
        }
        rack_workers
    }

    /// Reference PS scoring: one nested loop over (plan, server) pairs,
    /// exactly as Algorithm 2 is written. The first strictly-greater score
    /// wins, so the winner is the earliest maximum in scan order.
    fn score_plans_sequential(
        &self,
        scratch: &Cluster,
        state: &SteadyState,
        capacity: f64,
        plans: &[WorkerPlan],
    ) -> Option<(f64, usize, ServerId)> {
        let mut chosen_mask = vec![false; scratch.num_servers()];
        let mut best: Option<(f64, usize, ServerId)> = None;
        for (pi, plan) in plans.iter().enumerate() {
            for m in chosen_mask.iter_mut() {
                *m = false;
            }
            for s in &plan.servers {
                chosen_mask[s.0] = true;
            }
            let rack_workers = Self::plan_rack_workers(scratch, plan);
            for server in scratch.servers() {
                let sid = server.id();
                let eps: u32 = u32::from(!chosen_mask[sid.0]);
                // Flows the PS would share its access link with: existing
                // steady-state flows plus this plan's own workers on the
                // server (the job's gradient streams are flows too — a PS
                // stacked on the busiest worker server is the hot-spot the
                // paper's penalty is after).
                let own_workers = if chosen_mask[sid.0] {
                    server.gpus_free() as u32
                } else {
                    0
                };
                let s_flows = state.server_flows(sid) + own_workers;
                let f_max = plan.max_flows.max(s_flows + eps);
                let avail = state.server_available_gbps(sid);
                let base =
                    plan.value + avail - (capacity - avail) / (f64::from(s_flows + eps) + 1.0);
                let term = self.hotspot_term(scratch, state, &rack_workers, sid, f_max);
                let score = base + term;
                if best.is_none_or(|(b, _, _)| score > b) {
                    best = Some((score, pi, sid));
                }
            }
        }
        best
    }
}

/// The best complete assignment an exact search has seen:
/// `(objective, placements)`.
pub type Incumbent = (f64, Vec<(Job, Placement)>);

/// Place `batch` by exhaustive search: every worker split, PS location
/// and (with `enumerate_ina`) INA flag of every job, each complete
/// assignment evaluated from scratch, stopping after `max_evaluations`
/// leaves. Returns the incumbent — the first-enumerated optimum when the
/// budget sufficed, `None` when no complete assignment was reached — and
/// the number of leaves evaluated.
pub fn place_exact(
    cluster: &Cluster,
    running: &[RunningJob],
    batch: &[Job],
    enumerate_ina: bool,
    max_evaluations: u64,
) -> (Option<Incumbent>, u64) {
    let mut search = ScratchSearch {
        cluster,
        running,
        batch,
        enumerate_ina,
        max_evaluations,
        evaluations: 0,
        best: None,
    };
    let mut free: Vec<usize> = cluster.servers().iter().map(|s| s.gpus_free()).collect();
    let mut current = Vec::new();
    search.search(&mut free, &mut current, 0);
    (search.best, search.evaluations)
}

/// Enumerate worker distributions of `gpus` workers over servers with
/// `free` capacities (eager, like the legacy code).
fn worker_splits(free: &[usize], gpus: usize) -> Vec<Vec<(ServerId, usize)>> {
    let mut out = Vec::new();
    let _ = for_each_split(free, None, gpus, &mut |split| {
        out.push(split.to_vec());
        ControlFlow::Continue(())
    });
    out
}

/// The legacy exhaustive DFS, verbatim semantics: full enumeration (no
/// symmetry, no bound), each leaf re-evaluated from scratch. Kept as the
/// reference the branch-and-bound is diffed against.
struct ScratchSearch<'a> {
    cluster: &'a Cluster,
    running: &'a [RunningJob],
    batch: &'a [Job],
    enumerate_ina: bool,
    max_evaluations: u64,
    evaluations: u64,
    best: Option<Incumbent>,
}

impl ScratchSearch<'_> {
    fn search(&mut self, free: &mut Vec<usize>, current: &mut Vec<(Job, Placement)>, idx: usize) {
        if self.evaluations >= self.max_evaluations {
            return;
        }
        if idx == self.batch.len() {
            self.evaluations += 1;
            let obj = crate::placer::batch_comm_time_s(self.cluster, self.running, current);
            if self.best.as_ref().is_none_or(|(b, _)| obj < *b) {
                self.best = Some((obj, current.clone()));
            }
            return;
        }
        let job = &self.batch[idx];
        for split in worker_splits(free, job.gpus) {
            // PS candidates: every server for spanning placements, or the
            // lone worker server / no PS for single-server placements.
            let ps_list: Vec<Option<ServerId>> = if split.len() == 1 {
                vec![None]
            } else {
                (0..self.cluster.num_servers())
                    .map(|s| Some(ServerId(s)))
                    .collect()
            };
            for ps in ps_list {
                for &ina in ina_options(self.enumerate_ina, split.len()) {
                    let mut placement = Placement::new(split.clone(), ps);
                    placement.set_ina_enabled(ina);
                    for &(s, w) in placement.workers() {
                        free[s.0] -= w;
                    }
                    current.push((job.clone(), placement));
                    self.search(free, current, idx + 1);
                    if let Some((_, placement)) = current.pop() {
                        for &(s, w) in placement.workers() {
                            free[s.0] += w;
                        }
                    }
                    if self.evaluations >= self.max_evaluations {
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_splits_enumerate_all_compositions() {
        // Compositions of 2 over caps (2,2,2): (2),(1,1) over 3 servers =
        // 3 singles + 3 pairs = 6.
        let splits = worker_splits(&[2, 2, 2], 2);
        assert_eq!(splits.len(), 6);
    }
}
