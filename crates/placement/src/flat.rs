//! The production placement path: Algorithm 2 over flat arrays.
//!
//! The literal algorithm in [`crate::reference`] clones the cluster and
//! walks `&[Server]` slices per candidate; comfortable at 256 servers,
//! hopeless at 50k. This module re-implements the *mechanics* of its
//! `place_one` / `place_batch` over [`FlatTopology`]'s integer-indexed
//! arrays while keeping the *algorithm* — every comparison, every float
//! operation, every tie-break — identical, so both return bit-identical
//! placements (`DESIGN.md` §3.11; pinned by the
//! `production_matches_reference` property suite and the `fig10_xl`
//! smoke). Three mechanisms carry the speedup:
//!
//! 1. **A persistent server-class index** ([`ServerIndex`]). Servers stay
//!    bucketed across jobs, by DP weight-and-value for candidate selection
//!    and by PS-score key for PS scoring; each job re-keys only the servers
//!    the ledger's and the estimator's change journals name, so its cost
//!    follows what changed, not the cluster size. The single-server
//!    shortcut reads the front member of each filter class, and candidate
//!    selection offers [`CandidateFilter`] the first `⌊g_max/w⌋` members —
//!    the rest lose to class-mates of equal value and lower id, so both
//!    pick exactly what a scan of every server picks.
//! 2. **Class-deduplicated PS scoring.** For a fixed plan, the score of a
//!    PS candidate that hosts none of the plan's workers is a pure function
//!    of `(flows, avail, rack uplink flows, rack uplink capacity)` — its
//!    PS class — and of whether its rack is one of the plan's. Each plan
//!    scores its chosen servers, one representative per PS class *per plan
//!    rack*, and one representative per PS class for all other racks,
//!    collapsing ~50k evaluations to a few hundred. The winner under
//!    (max score, min server id) equals the reference's
//!    first-strictly-greater scan.
//! 3. **Arena reuse.** All per-job and per-plan scratch (stamp masks,
//!    worker lists) lives in [`FlatBatch`] and is reused across the whole
//!    batch; the hot loop allocates nothing, and the [`Cluster`] is static
//!    information that is never cloned or written — the free GPUs are
//!    [`GpuLedger`]'s, the only book of them on this path.
//!
//! The batch loop itself — FindSubset, per job worker DP + PS score +
//! commit + eager push, INAEnable — is written once, in
//! [`NetPackPlacer::place_batch_on`], over a `(FlatBatch,
//! IncrementalEstimator)` pair. The stateless placer builds the pair from
//! `(cluster, running)` and drops it after the batch;
//! [`NetPackSession`](crate::NetPackSession) keeps its pair warm.

use crate::dp::{WorkerDp, WorkerPlan};
use crate::index::{RefreshStats, ServerIndex};
use crate::knapsack::subset_in_placement_order;
use crate::ledger::GpuLedger;
use crate::netpack::{record_waterfill, NetPackPlacer};
use crate::placer::{BatchOutcome, RunningJob};
use crate::select::CandidateFilter;
use netpack_metrics::{parallel_sweep_reduce, PerfCounters, Stopwatch};
use netpack_model::Placement;
use netpack_topology::{Cluster, FlatTopology, RackId, ServerId, TopologyError};
use netpack_waterfill::{IncrementalEstimator, PlacedJob, SteadyState};
use netpack_workload::Job;
use std::sync::{Mutex, TryLockError};

/// Minimum plan count before the PS-scoring loop fans out across threads;
/// below this the pool-grab overhead outweighs the dozen scores saved.
const PLAN_PAR_MIN: usize = 16;

/// Batch-lifetime state of the flat placement path: the lowered topology,
/// the GPU ledger, and every scratch arena the hot loops reuse.
pub(crate) struct FlatBatch {
    topo: FlatTopology,
    /// Free GPUs per server — the one ledger of this path; the `Cluster`
    /// is never cloned or mutated.
    ledger: GpuLedger,
    /// Server classes for the single-server shortcut, candidate selection
    /// and PS scoring; built by the first job, refreshed by every later one.
    index: ServerIndex,
    // -- per-plan scratch (stamped, never cleared) --
    /// The master [`PlanScratch`], used by every sequential plan loop.
    scratch: PlanScratch,
    /// Extra scratches for the parallel plan loop, lazily grown to the
    /// worker count; workers grab a free one per plan via `try_lock`.
    plan_pool: Vec<Mutex<PlanScratch>>,
    /// Gradient-sharding arena: per-server PS scores for the winning plan,
    /// reused across jobs instead of a fresh length-`n` `Vec` each time.
    ps_scored: Vec<(f64, ServerId)>,
}

/// Per-plan stamped scratch: which servers and racks the current plan
/// touches, its per-rack worker totals, and which PS classes the plan rack
/// being scored has already shown. Extracted from [`FlatBatch`]
/// so the parallel plan loop can hand each worker an independent copy; the
/// stamp trick (bump a counter instead of clearing arrays) is unchanged,
/// and scores are a pure function of the plan — never of which scratch, or
/// whose stamp history, computed them.
#[derive(Debug, Default)]
struct PlanScratch {
    chosen_stamp: Vec<u32>,
    rack_stamp: Vec<u32>,
    stamp: u32,
    rack_workers: Vec<(RackId, u32)>,
    /// `class_seen[c] == class_mark`: PS class `c` already has its
    /// representative in the plan rack being scored. Grown to the class
    /// count on demand; a fresh mark per plan rack stands in for clearing.
    class_seen: Vec<u32>,
    class_mark: u32,
}

/// Work done scoring PS candidates.
#[derive(Debug, Clone, Copy, Default)]
struct ScoreTally {
    /// Score evaluations performed.
    evals: u64,
    /// Plan-rack servers not evaluated: a lower-id server of the same PS
    /// class in the same rack already was.
    rack_skipped: u64,
}

impl PlanScratch {
    /// Size the stamp arenas for a topology (idempotent).
    fn ensure(&mut self, ns: usize, nr: usize) {
        if self.chosen_stamp.len() != ns || self.rack_stamp.len() != nr {
            self.chosen_stamp = vec![0; ns];
            self.rack_stamp = vec![0; nr];
            self.stamp = 0;
        }
    }

    /// Stamp one plan's chosen servers and racks and rebuild the per-rack
    /// worker totals (first-seen order, as the reference computes them).
    /// Returns the stamp identifying this plan in the stamp arenas.
    fn begin(&mut self, topo: &FlatTopology, gpus_free: &[u32], plan: &WorkerPlan) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.chosen_stamp.fill(0);
            self.rack_stamp.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        self.rack_workers.clear();
        for &sid in &plan.servers {
            self.chosen_stamp[sid.0] = stamp;
            let r = RackId(topo.rack_of(sid.0));
            let w = gpus_free[sid.0];
            match self.rack_workers.iter_mut().find(|(rr, _)| *rr == r) {
                Some(e) => e.1 += w,
                None => {
                    self.rack_workers.push((r, w));
                    self.rack_stamp[r.0] = stamp;
                }
            }
        }
        stamp
    }

    /// Start a plan rack: a mark no entry of `class_seen` holds, with room
    /// for `classes` class ids.
    fn begin_rack(&mut self, classes: usize) -> u32 {
        if self.class_seen.len() < classes {
            self.class_seen.resize(classes, 0);
        }
        self.class_mark = self.class_mark.wrapping_add(1);
        if self.class_mark == 0 {
            self.class_seen.fill(0);
            self.class_mark = 1;
        }
        self.class_mark
    }
}

/// Grab any free slot from a scratch pool, spinning across entries until
/// one unlocks. Pools are sized to the worker count, so a free entry
/// always exists; a poisoned entry is reclaimed (its contents are scratch,
/// valid in any state).
fn grab_slot<T>(pool: &[Mutex<T>]) -> std::sync::MutexGuard<'_, T> {
    loop {
        for m in pool {
            match m.try_lock() {
                Ok(g) => return g,
                Err(TryLockError::Poisoned(p)) => return p.into_inner(),
                Err(TryLockError::WouldBlock) => {}
            }
        }
        std::hint::spin_loop();
    }
}

impl FlatBatch {
    pub(crate) fn new(cluster: &Cluster) -> Self {
        let topo = FlatTopology::new(cluster);
        let mut scratch = PlanScratch::default();
        scratch.ensure(topo.num_servers(), topo.num_racks());
        FlatBatch {
            topo,
            ledger: GpuLedger::new(cluster),
            index: ServerIndex::new(),
            scratch,
            plan_pool: Vec::new(),
            ps_scored: Vec::new(),
        }
    }

    /// The free-GPU ledger.
    pub(crate) fn ledger(&self) -> &GpuLedger {
        &self.ledger
    }

    /// Grow the plan-scoring scratch pool to `workers` entries.
    fn ensure_plan_pool(&mut self, workers: usize) {
        let ns = self.topo.num_servers();
        let nr = self.topo.num_racks();
        while self.plan_pool.len() < workers {
            let mut s = PlanScratch::default();
            s.ensure(ns, nr);
            self.plan_pool.push(Mutex::new(s));
        }
    }

    /// Debit the ledger for a placement. Returns `false` (committing
    /// nothing) if any worker would overdraw — the DP guarantees this
    /// never happens, but the ledger refuses rather than panics.
    pub(crate) fn commit(&mut self, placement: &Placement) -> bool {
        let free = self.ledger.free();
        let fits = placement.workers().iter().all(|&(s, w)| w <= free[s.0] as usize);
        if fits {
            for &(s, w) in placement.workers() {
                self.ledger.set_free(s.0, self.ledger.free()[s.0] - w as u32);
            }
        }
        fits
    }

    /// Credit every worker of `placement` back — the inverse of
    /// [`commit`](Self::commit), for job completion. Refuses (crediting
    /// nothing) if any server would end above its GPU count: a double
    /// completion must not corrupt the ledger and the index keys derived
    /// from it.
    pub(crate) fn credit(&mut self, placement: &Placement) -> Result<(), TopologyError> {
        let gps = self.topo.gpus_per_server();
        for &(server, released) in placement.workers() {
            let free = self.ledger.free()[server.0] as usize;
            if free + released > gps {
                return Err(TopologyError::ReleaseOverflow {
                    server,
                    released,
                    allocated: gps - free,
                });
            }
        }
        for &(s, w) in placement.workers() {
            self.ledger.set_free(s.0, self.ledger.free()[s.0] + w as u32);
        }
        Ok(())
    }

    /// Bring the index up to date from the ledger's journal and `inc`'s,
    /// and clear both.
    fn refresh_index(&mut self, inc: &mut IncrementalEstimator) -> RefreshStats {
        // A staged op has journalled nothing yet: the keys would be stale.
        debug_assert!(inc.is_settled());
        let refreshed = self.index.refresh(
            &self.topo,
            self.ledger.free(),
            inc.state(),
            self.ledger.journal(),
            inc.journal(),
        );
        self.ledger.clear_journal();
        inc.clear_journal();
        refreshed
    }

    /// Oracle: the index, caught up through the ledger's pending journal
    /// and `inc`'s and through nothing else, must equal a from-scratch
    /// build over `inc`'s steady state.
    pub(crate) fn audit_index(&self, inc: &IncrementalEstimator) -> Result<(), String> {
        self.index.audit(
            &self.topo,
            self.ledger.free(),
            inc.state(),
            self.ledger.journal(),
            inc.journal(),
        )
    }
}

impl NetPackPlacer {
    /// Score one PS candidate for one plan — the exact float operations of
    /// the reference scorer, fed from the flat ledger and stamp arenas.
    #[allow(clippy::too_many_arguments)]
    fn score_candidate_flat(
        &self,
        fb: &FlatBatch,
        ps: &PlanScratch,
        cluster: &Cluster,
        state: &SteadyState,
        capacity: f64,
        plan: &WorkerPlan,
        sid: usize,
        stamp: u32,
    ) -> f64 {
        let chosen = ps.chosen_stamp[sid] == stamp;
        let eps = u32::from(!chosen);
        let own_workers = if chosen { fb.ledger.free()[sid] } else { 0 };
        let s_flows = state.server_flows(ServerId(sid)) + own_workers;
        let f_max = plan.max_flows.max(s_flows + eps);
        let avail = state.server_available_gbps(ServerId(sid));
        let base = plan.value + avail - (capacity - avail) / (f64::from(s_flows + eps) + 1.0);
        let term = self.hotspot_term(cluster, state, &ps.rack_workers, ServerId(sid), f_max);
        base + term
    }

    /// Best `(score, PS server)` of one plan under (max score, min id) —
    /// equal to the reference's ascending first-strictly-greater scan.
    ///
    /// A server hosting none of the plan's workers scores as a pure
    /// function of its [`PsKey`](crate::index::PsKey) class and of which
    /// plan rack, if any, it sits in; among servers of equal score only
    /// the lowest id can win. So inside each plan rack the chosen servers
    /// are scored one by one and everyone else through the first (lowest
    /// id) server of each class, and outside the plan racks each class is
    /// scored through its lowest-id member there. `tally` counts the
    /// evaluations performed and the plan-rack servers they stood in for.
    #[allow(clippy::too_many_arguments)]
    fn score_plan_flat(
        &self,
        fb: &FlatBatch,
        ps: &mut PlanScratch,
        cluster: &Cluster,
        state: &SteadyState,
        capacity: f64,
        plan: &WorkerPlan,
        tally: &mut ScoreTally,
    ) -> Option<(f64, ServerId)> {
        let stamp = ps.begin(&fb.topo, fb.ledger.free(), plan);
        let mut best: Option<(f64, usize)> = None;
        let consider = |score: f64, sid: usize, best: &mut Option<(f64, usize)>| {
            let wins = match *best {
                None => true,
                Some((b, bsid)) => score > b || (score == b && sid < bsid),
            };
            if wins {
                *best = Some((score, sid));
            }
        };
        let classes = &fb.index.ps;
        for ri in 0..ps.rack_workers.len() {
            let rack = ps.rack_workers[ri].0;
            let mark = ps.begin_rack(classes.num_classes());
            for sid in fb.topo.rack_server_range(rack.0) {
                if ps.chosen_stamp[sid] != stamp {
                    let seen = &mut ps.class_seen[classes.class_of(sid)];
                    if *seen == mark {
                        tally.rack_skipped += 1;
                        continue;
                    }
                    *seen = mark;
                }
                let score =
                    self.score_candidate_flat(fb, ps, cluster, state, capacity, plan, sid, stamp);
                tally.evals += 1;
                consider(score, sid, &mut best);
            }
        }
        // Members ascend and a rack is a contiguous id range, so the first
        // member past each plan rack is one binary search away; a class
        // lying wholly inside plan racks costs a search per rack, not a
        // walk over its members.
        for (_, members) in classes.classes() {
            let mut at = 0;
            while let Some(&m) = members.get(at) {
                let rack = fb.topo.rack_of(m as usize);
                if ps.rack_stamp[rack] != stamp {
                    let sid = m as usize;
                    let score = self
                        .score_candidate_flat(fb, ps, cluster, state, capacity, plan, sid, stamp);
                    tally.evals += 1;
                    consider(score, sid, &mut best);
                    break;
                }
                let rack_end = fb.topo.rack_server_range(rack).end as u32;
                at = members.partition_point(|&x| x < rack_end);
            }
        }
        best.map(|(score, sid)| (score, ServerId(sid)))
    }

    /// `place_one` over the flat arrays: identical algorithm, integer
    /// indices, index-fed shortcut and selection, deduplicated scoring.
    /// Scores against `inc`'s steady state and drains its change journal.
    pub(crate) fn place_one_flat(
        &self,
        fb: &mut FlatBatch,
        cluster: &Cluster,
        inc: &mut IncrementalEstimator,
        job: &Job,
        perf: &mut PerfCounters,
    ) -> Option<Placement> {
        let threads = self.threads;
        // Bring the server index up to date with whatever the ledger and
        // the estimator did since the last job.
        let class_start = Stopwatch::start();
        let refreshed = fb.refresh_index(inc);
        perf.record("class_build", class_start.elapsed());
        perf.incr("index_rebuilds", refreshed.rebuilds);
        perf.incr("index_rekeyed", refreshed.rekeyed);
        perf.incr("index_journal_servers", refreshed.journal_servers);
        perf.incr("index_classes", refreshed.classes);
        debug_assert_eq!(fb.audit_index(inc), Ok(()));
        let state = inc.state();

        // Single-server shortcut: tightest fit, ties toward the most
        // residual bandwidth, first wins (= the reference's `min_by`),
        // read off the filter classes' front members.
        let scan_start = Stopwatch::start();
        let single = if fb.ledger.any_server_fits(job.gpus) {
            fb.index.tightest_fit(job.gpus)
        } else {
            None
        };
        perf.record("single_scan", scan_start.elapsed());
        debug_assert_eq!(
            single,
            fb.ledger.scan_tightest_fit(state.servers_available_gbps(), job.gpus)
        );
        if let Some(s) = single {
            return Some(Placement::local(ServerId(s), job.gpus));
        }

        // Index-fed candidate selection feeding the same pruned DP as the
        // reference (`ServerIndex::offer_candidates` says why the kept set
        // equals a full scan's).
        let capacity = cluster.spec().server_link_gbps;
        let gps = cluster.spec().gpus_per_server;
        let slack = gps;
        let fs_max = self.config.flow_dimension.then_some(self.config.fs_max);
        let select_start = Stopwatch::start();
        let mut filter = CandidateFilter::new(gps, job.gpus, slack, fs_max);
        fb.index.offer_candidates(capacity, job.gpus + slack, &mut filter);
        perf.record("candidate_select", select_start.elapsed());
        perf.incr("dp_candidates_offered", filter.offered());
        perf.incr("dp_candidates_kept", filter.kept() as u64);
        let stats = filter.candidates();
        let dp = if self.config.flow_dimension {
            WorkerDp::new(self.config.fs_max)
        } else {
            WorkerDp::without_flow_dimension()
        };
        let dp_start = Stopwatch::start();
        let plans = dp.plans(&stats, job.gpus, slack);
        perf.record("worker_dp", dp_start.elapsed());
        if plans.is_empty() {
            return None;
        }

        // PSPlacement with class-deduplicated scoring.
        perf.incr("plans_considered", plans.len() as u64);
        let scoring_start = Stopwatch::start();
        let (best, tally) = if plans.len() >= PLAN_PAR_MIN && threads > 1 {
            // Workers score disjoint plan ranges concurrently on pooled
            // scratches; the ordered fold re-applies the sequential
            // tie-break (strictly greater wins, lowest plan index keeps
            // ties) in plan order, so the winner is bit-identical to the
            // loop below for any worker count.
            fb.ensure_plan_pool(threads);
            let fbr: &FlatBatch = fb;
            let cells: Vec<usize> = (0..plans.len()).collect();
            parallel_sweep_reduce(
                threads,
                &cells,
                |&pi| {
                    let mut scratch = grab_slot(&fbr.plan_pool);
                    let mut t = ScoreTally::default();
                    let r = self.score_plan_flat(
                        fbr, &mut scratch, cluster, state, capacity, &plans[pi], &mut t,
                    );
                    (pi, r, t)
                },
                (None, ScoreTally::default()),
                |(best, tally): (Option<(f64, usize, ServerId)>, ScoreTally), (pi, r, t)| {
                    let best = match r {
                        Some((score, sid))
                            if best.is_none_or(|(b, _, _)| score > b) =>
                        {
                            Some((score, pi, sid))
                        }
                        _ => best,
                    };
                    let tally = ScoreTally {
                        evals: tally.evals + t.evals,
                        rack_skipped: tally.rack_skipped + t.rack_skipped,
                    };
                    (best, tally)
                },
            )
        } else {
            let mut scratch = std::mem::take(&mut fb.scratch);
            let mut best: Option<(f64, usize, ServerId)> = None;
            let mut tally = ScoreTally::default();
            for (pi, plan) in plans.iter().enumerate() {
                if let Some((score, sid)) =
                    self.score_plan_flat(fb, &mut scratch, cluster, state, capacity, plan, &mut tally)
                {
                    if best.is_none_or(|(b, _, _)| score > b) {
                        best = Some((score, pi, sid));
                    }
                }
            }
            fb.scratch = scratch;
            (best, tally)
        };
        perf.incr("ps_candidates_scored", tally.evals);
        perf.incr("ps_rack_servers_skipped", tally.rack_skipped);
        perf.record("ps_scoring", scoring_start.elapsed());
        let (_, pi, ps) = best?;
        let plan = &plans[pi];

        // Gradient sharding (k > 1): rank every server for the winning
        // plan, exactly as the reference does, into the reused arena.
        let pses = if self.config.pses_per_job <= 1 {
            vec![ps]
        } else {
            let mut scratch = std::mem::take(&mut fb.scratch);
            let mut scored = std::mem::take(&mut fb.ps_scored);
            let stamp = scratch.begin(&fb.topo, fb.ledger.free(), plan);
            scored.clear();
            for sid in 0..fb.topo.num_servers() {
                let score =
                    self.score_candidate_flat(fb, &scratch, cluster, state, capacity, plan, sid, stamp);
                scored.push((score, ServerId(sid)));
            }
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let pses: Vec<ServerId> = scored
                .iter()
                .take(self.config.pses_per_job)
                .map(|&(_, sid)| sid)
                .collect();
            fb.ps_scored = scored;
            fb.scratch = scratch;
            pses
        };

        // Materialize and release surplus: PS's own server first, then the
        // least-loaded (largest, last on ties — the reference's
        // `max_by_key`) chosen server. Drained entries stay in place at
        // zero instead of paying an O(n) `remove` each: a zero can never
        // win `w >= bw` while a positive worker remains (and one always
        // does while surplus > 0), and compaction preserves the survivors'
        // relative order, so the last-max pick is exactly the reference's.
        let mut workers: Vec<(ServerId, usize)> = plan
            .servers
            .iter()
            .map(|&s| (s, fb.ledger.free()[s.0] as usize))
            .collect();
        let mut surplus = plan.gpus.checked_sub(job.gpus)?;
        while surplus > 0 {
            let idx = match workers.iter().position(|&(s, w)| s == ps && w > 0) {
                Some(i) => i,
                None => {
                    let mut max: Option<(usize, usize)> = None;
                    for (i, &(_, w)) in workers.iter().enumerate() {
                        if max.is_none_or(|(_, bw)| w >= bw) {
                            max = Some((i, w));
                        }
                    }
                    max?.0
                }
            };
            let take = workers[idx].1.min(surplus);
            workers[idx].1 -= take;
            surplus -= take;
        }
        workers.retain(|&(_, w)| w > 0);
        Some(Placement::new_sharded(workers, pses))
    }

    /// Algorithm 2's four steps on a `(ledger, estimator)` pair — the one
    /// batch loop under the stateless placer and the session. `inc` must be
    /// settled and hold exactly `running`, whose GPUs `fb`'s ledger has
    /// debited; on return both also hold the placed jobs, every batch
    /// placement pushed INA-on (a caller that keeps `inc` re-pushes the
    /// ones step 4 turned off).
    pub(crate) fn place_batch_on(
        &self,
        fb: &mut FlatBatch,
        inc: &mut IncrementalEstimator,
        cluster: &Cluster,
        running: &[RunningJob],
        batch: &[Job],
        perf: &mut PerfCounters,
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        // Step 1: FindSubset over the ledger's free total, then
        // value-descending placement order.
        let ordered =
            subset_in_placement_order(batch, fb.ledger.total_free(), &mut outcome.deferred);
        // Steps 2-3: each job is scored against the steady state the jobs
        // before it left (Algorithm 2 line 7), so every push is eager.
        for job in ordered {
            let one_start = Stopwatch::start();
            let placed = self.place_one_flat(fb, cluster, inc, job, perf);
            perf.record("place_one", one_start.elapsed());
            match placed {
                Some(placement) if fb.commit(&placement) => {
                    let start = Stopwatch::start();
                    inc.push(cluster, PlacedJob::new(job.id, cluster, &placement));
                    perf.record("waterfill_solve", start.elapsed());
                    outcome.placed.push((job.clone(), placement));
                }
                _ => outcome.deferred.push(job.clone()),
            }
        }
        // Step 4: selective INA over the steady state the estimator already
        // holds — running + placed, batch placements still INA-on.
        let ina_start = Stopwatch::start();
        self.enable_ina(cluster, running, &mut outcome.placed, inc.state());
        perf.record("ina_enable", ina_start.elapsed());
        outcome
    }

    /// The stateless `place_batch`: build the pair from `(cluster,
    /// running)`, run the batch on it, drop it.
    pub(crate) fn place_batch_flat(
        &mut self,
        cluster: &Cluster,
        running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        let mut perf = std::mem::take(&mut self.perf);
        let batch_start = Stopwatch::start();
        let mut fb = FlatBatch::new(cluster);
        let running_placed: Vec<PlacedJob> =
            running.iter().map(|r| r.to_placed(cluster)).collect();
        let start = Stopwatch::start();
        let mut inc = IncrementalEstimator::new(cluster, &running_placed);
        perf.record("waterfill_solve", start.elapsed());
        let outcome = self.place_batch_on(&mut fb, &mut inc, cluster, running, batch, &mut perf);
        record_waterfill(&mut perf, *inc.stats());
        perf.record("place_batch", batch_start.elapsed());
        self.perf = perf;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netpack::{HotSpotTerm, NetPackConfig};
    use crate::placer::Placer;
    use crate::NetPackSession;
    use netpack_topology::{ClusterSpec, JobId};
    use netpack_workload::ModelKind;

    fn cluster(racks: usize, spr: usize, gps: usize) -> Cluster {
        Cluster::new(ClusterSpec {
            racks,
            servers_per_rack: spr,
            gpus_per_server: gps,
            racks_per_pod: Some(2),
            ..ClusterSpec::paper_default()
        })
    }

    fn job(id: u64, gpus: usize) -> Job {
        Job::builder(JobId(id), ModelKind::Vgg16, gpus).build()
    }

    /// The flat ledger tracks commitments across a batch: two spanning
    /// jobs can't double-book the same GPUs.
    #[test]
    fn flat_ledger_prevents_double_booking() {
        let c = cluster(2, 2, 4);
        let batch: Vec<Job> = vec![job(0, 6), job(1, 6), job(2, 6)];
        let out = NetPackPlacer::default().place_batch(&c, &[], &batch);
        let booked: usize = out
            .placed
            .iter()
            .map(|(_, p)| p.total_workers())
            .sum();
        assert!(booked <= c.free_gpus());
        for (_, p) in &out.placed {
            p.validate(&c, p.total_workers()).unwrap();
        }
    }

    /// "Does any server fit" follows commit and credit, both journal the
    /// servers they write, and a credit that would overfill a server is
    /// refused whole.
    #[test]
    fn commit_and_credit_go_through_the_ledger() {
        let c = cluster(2, 2, 4);
        let mut fb = FlatBatch::new(&c);
        assert!(fb.ledger.any_server_fits(4) && !fb.ledger.any_server_fits(5));
        let p = Placement::new(vec![(ServerId(0), 4), (ServerId(1), 1)], Some(ServerId(0)));
        let q = Placement::new(vec![(ServerId(2), 2), (ServerId(3), 3)], Some(ServerId(2)));
        assert!(fb.commit(&p) && fb.commit(&q));
        assert_eq!(fb.ledger.free(), [0, 3, 2, 1]);
        assert!(fb.ledger.any_server_fits(3) && !fb.ledger.any_server_fits(4));
        assert_eq!(fb.credit(&q), Ok(()));
        assert!(fb.ledger.any_server_fits(4));
        assert_eq!(fb.ledger.journal(), [0, 1, 2, 3, 2, 3]);
        // Server 2 is full again: a second credit must change nothing,
        // not even server 3's share of it.
        let before = fb.ledger.free().to_vec();
        assert!(matches!(fb.credit(&q), Err(TopologyError::ReleaseOverflow { .. })));
        assert_eq!(fb.ledger.free(), before);
        assert_eq!(fb.ledger.journal().len(), 6);
    }

    /// The stateless placer and the session are two callers of one batch
    /// loop: from an idle cluster they place a batch identically — subset,
    /// placements, INA flags, deferrals — and time the same phases.
    #[test]
    fn stateless_and_session_share_one_batch_loop() {
        let c = cluster(4, 8, 4);
        let batch: Vec<Job> = (0..40).map(|i| job(i, 1 + (i as usize * 7) % 9)).collect();
        let mut placer = NetPackPlacer::default();
        let stateless = placer.place_batch_flat(&c, &[], &batch);
        let mut session = NetPackSession::new(c, NetPackConfig::default());
        let warm = session.place_batch(&batch);
        assert!(stateless.placed.iter().any(|(_, p)| !p.is_local()));
        assert!(!stateless.deferred.is_empty(), "128 GPUs, more demanded");
        assert_eq!(warm.placed, stateless.placed);
        assert_eq!(warm.deferred, stateless.deferred);
        assert_eq!(session.audit_ledger(), Ok(()));
        let timers = |perf: &PerfCounters| -> Vec<String> {
            let rows = perf.to_table().to_csv();
            rows.lines()
                .filter_map(|row| row.split(',').next()?.strip_suffix(" (ms)").map(str::to_string))
                .collect()
        };
        let timed = timers(placer.perf());
        assert_eq!(timers(session.perf()), timed);
        for phase in ["place_batch", "place_one", "worker_dp", "ps_scoring", "ina_enable"] {
            assert!(timed.iter().any(|t| t == phase), "{phase}");
        }
    }

    /// Per plan, the deduplicated scorer must pick what a scan of every
    /// server picks — on plans spanning racks whose servers share PS
    /// classes (a representative of one plan rack must not stand in for
    /// another's: the hot-spot term differs), with the plan's own servers
    /// inside those classes, under both hot-spot variants.
    #[test]
    fn plan_scoring_equals_a_full_scan() {
        let c = Cluster::new(ClusterSpec {
            racks: 3,
            servers_per_rack: 24,
            gpus_per_server: 4,
            oversubscription: 8.0,
            ..ClusterSpec::paper_default()
        });
        let capacity = c.spec().server_link_gbps;
        let mut fb = FlatBatch::new(&c);
        // Background: racks 0 and 1 carry the same uplink load (so their
        // idle servers share one PS class), rack 2 a different one.
        let background = [
            Placement::new(vec![(ServerId(1), 2), (ServerId(25), 2)], Some(ServerId(2))),
            Placement::new(vec![(ServerId(30), 3), (ServerId(50), 1), (ServerId(51), 1)], Some(ServerId(52))),
            Placement::new(vec![(ServerId(60), 4), (ServerId(61), 2)], Some(ServerId(61))),
        ];
        let mut inc = IncrementalEstimator::new(&c, &[]);
        for (i, p) in background.iter().enumerate() {
            assert!(fb.commit(p));
            inc.push(&c, PlacedJob::new(JobId(100 + i as u64), &c, p));
        }
        fb.refresh_index(&mut inc);
        let state = inc.state();

        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = move |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        let mut scratch = std::mem::take(&mut fb.scratch);
        let mut tally = ScoreTally::default();
        for hotspot in [HotSpotTerm::RewardBottleneckShare, HotSpotTerm::PaperLiteral] {
            let placer = NetPackPlacer::new(NetPackConfig {
                hotspot,
                ..NetPackConfig::default()
            });
            for case in 0..300 {
                let mut servers: Vec<ServerId> = Vec::new();
                for _ in 0..2 + below(5) {
                    let s = ServerId(below(72));
                    if fb.ledger.free()[s.0] > 0 && !servers.contains(&s) {
                        servers.push(s);
                    }
                }
                let plan = WorkerPlan {
                    gpus: servers.iter().map(|s| fb.ledger.free()[s.0] as usize).sum(),
                    servers,
                    max_flows: below(6) as u32,
                    value: below(400) as f64 * 0.5,
                };
                let got =
                    placer.score_plan_flat(&fb, &mut scratch, &c, state, capacity, &plan, &mut tally);
                let stamp = scratch.begin(&fb.topo, fb.ledger.free(), &plan);
                let mut want: Option<(f64, ServerId)> = None;
                for sid in 0..72 {
                    let score = placer
                        .score_candidate_flat(&fb, &scratch, &c, state, capacity, &plan, sid, stamp);
                    if want.is_none_or(|(b, _)| score > b) {
                        want = Some((score, ServerId(sid)));
                    }
                }
                let bits = |r: Option<(f64, ServerId)>| r.map(|(score, sid)| (score.to_bits(), sid));
                assert_eq!(bits(got), bits(want), "{hotspot:?} case {case}: {plan:?}");
            }
        }
        assert!(tally.rack_skipped > 0 && tally.evals < 600 * 72 / 2);
    }

    /// Class keys separate servers whose racks differ in uplink load.
    #[test]
    fn class_table_groups_interchangeable_servers() {
        let c = cluster(32, 4, 4);
        let mut fb = FlatBatch::new(&c);
        let mut inc = IncrementalEstimator::new(&c, &[]);
        fb.refresh_index(&mut inc);
        // Idle cluster: every server is interchangeable — one class in
        // each partition, members ascending.
        let all: Vec<u32> = (0..128).collect();
        for classes in [
            fb.index.ps.classes().map(|(_, m)| m).collect::<Vec<_>>(),
            fb.index.filter.classes().map(|(_, m)| m).collect::<Vec<_>>(),
        ] {
            assert_eq!(classes.len(), 1);
            assert!(classes[0].iter().eq(&all));
        }
        // A cross-rack job loads two rack uplinks: both racks leave the
        // idle PS class, only the two workers leave the idle filter class,
        // and the journals name just those two servers (once for their GPUs,
        // once for their access links): they are re-keyed without a rebuild
        // and nobody else is looked at.
        let p = Placement::new(vec![(ServerId(0), 4), (ServerId(5), 4)], Some(ServerId(0)));
        assert!(fb.commit(&p));
        inc.push(&c, PlacedJob::new(JobId(0), &c, &p));
        assert_eq!(fb.audit_index(&inc), Ok(()));
        let stats = fb.refresh_index(&mut inc);
        assert_eq!((stats.rebuilds, stats.journal_servers), (0, 4));
        assert!(fb.ledger.journal().is_empty() && inc.journal().is_empty());
        let idle = |mut classes: Vec<&std::collections::VecDeque<u32>>| classes.remove(0).clone();
        let ps_idle = idle(fb.index.ps.classes().map(|(_, m)| m).collect());
        assert!(ps_idle.iter().eq(&(8..128).collect::<Vec<u32>>()));
        let filter_idle = idle(fb.index.filter.classes().map(|(_, m)| m).collect());
        assert_eq!(filter_idle.len(), 126);
        assert!(!filter_idle.contains(&0) && !filter_idle.contains(&5));
    }
}
