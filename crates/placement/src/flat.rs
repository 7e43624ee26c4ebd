//! The production placement path: Algorithm 2 over flat arrays.
//!
//! The literal algorithm in [`crate::reference`] clones the cluster and
//! walks `&[Server]` slices per candidate; comfortable at 256 servers,
//! hopeless at 50k. This module re-implements the *mechanics* of its
//! `place_one` / `place_batch` over [`FlatTopology`]'s integer-indexed
//! arrays while keeping the *algorithm* — every comparison, every float
//! operation, every tie-break — identical, so both return bit-identical
//! placements (`DESIGN.md` §3.11; pinned by the
//! `production_matches_reference` property suite and the root `oracles`
//! test). Three mechanisms carry the speedup:
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
//! 2. **PS scoring per class, from a per-job table.** For a fixed plan,
//!    the score of a PS candidate that hosts none of the plan's workers is
//!    a pure function of `(flows, avail, rack uplink flows, rack uplink
//!    capacity)` — its PS class — and of whether its rack is one of the
//!    plan's; among equal scores only the lowest id can win. Every plan of
//!    a job is scored against one steady state, so [`PsTable`] holds, per
//!    live class and once per job, what no plan changes (`avail`,
//!    `flows + 1`, the quotient `(C − avail)/(flows + 2)`, the class's
//!    uplink group, its lowest member and the racks it spans) and, per
//!    rack a plan of the job touches, the classes present there with their
//!    lowest member in the rack. A plan then divides once per plan rack and
//!    once per uplink group, scores its own servers with the literal
//!    formula, and scores one representative per class per plan rack and
//!    one per class outside them with two adds, a table lookup and two
//!    `min`s (`max`s for the paper-literal term) each — a plan rack costs
//!    its classes, not its servers. `min` and `max` are exact, so folding
//!    them in another association returns the same bits; every operation
//!    that rounds keeps the reference's operands and order, and a debug
//!    build holds each representative's score to
//!    [`score_candidate_flat`](NetPackPlacer::score_candidate_flat), the
//!    literal formula, bit for bit. The winner under (max score, min
//!    server id) equals the reference's first-strictly-greater scan. The
//!    table also bounds every representative of a plan from above, so a
//!    plan whose bound cannot beat an earlier plan of the job scores its
//!    own servers only.
//! 3. **Arena reuse.** All per-job and per-plan scratch (stamp masks,
//!    worker lists, the worker DP's tables) lives in [`FlatBatch`] and is
//!    reused across the whole batch, and a stateless placer keeps its
//!    [`FlatBatch`] from one call to the next for the capacity of its
//!    arrays; the hot loop allocates nothing, and the [`Cluster`] is static
//!    information that is never cloned or written — the free GPUs are
//!    [`GpuLedger`]'s, the only book of them on this path.
//!
//! The batch loop itself — FindSubset, per job worker DP + PS score +
//! commit + eager push, INAEnable — is written once, in
//! [`NetPackPlacer::place_batch_on`], over a `(FlatBatch,
//! IncrementalEstimator)` pair. The stateless placer resets the batch it
//! kept from its last call to `(cluster, running)` — every array's
//! contents rebuilt, only capacity kept — builds a fresh estimator, and
//! drops the estimator after the batch;
//! [`NetPackSession`](crate::NetPackSession) keeps its pair warm.

use crate::dp::{DpArena, WorkerDp, WorkerPlan};
use crate::index::{Partition, PsKey, RefreshStats, ServerIndex};
use crate::knapsack::subset_in_placement_order;
use crate::ledger::GpuLedger;
use crate::netpack::{record_waterfill, HotSpotTerm, NetPackPlacer};
use crate::placer::{BatchOutcome, RunningJob};
use crate::select::CandidateFilter;
use netpack_metrics::{PerfCounters, Stopwatch, TimerSlot};
use netpack_model::Placement;
use netpack_topology::{Cluster, FlatTopology, RackId, ServerId, TopologyError};
use netpack_waterfill::{IncrementalEstimator, PlacedJob, SteadyState};
use netpack_workload::Job;
use std::ops::Range;

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
    /// What PS scoring reads of the index, laid out per class for the job
    /// being placed; rebuilt by every job that reaches PS scoring.
    ps_table: PsTable,
    /// Per-plan scratch (stamped, never cleared).
    scratch: PlanScratch,
    /// Gradient-sharding arena: per-server PS scores for the winning plan,
    /// reused across jobs instead of a fresh length-`n` `Vec` each time.
    ps_scored: Vec<(f64, ServerId)>,
    /// The worker DP's tables, reused across jobs.
    dp: DpArena,
}

/// The [`FlatBatch`] a stateless [`NetPackPlacer`] keeps between calls for
/// the capacity of its arrays: every call resets its contents from the
/// call's `(cluster, running)`. A clone starts with none.
#[derive(Default)]
pub(crate) struct KeptBatch(Option<FlatBatch>);

impl Clone for KeptBatch {
    fn clone(&self) -> Self {
        KeptBatch(None)
    }
}

impl std::fmt::Debug for KeptBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let servers = self.0.as_ref().map(|fb| fb.topo.num_servers());
        f.debug_tuple("KeptBatch").field(&servers).finish()
    }
}

/// Per-plan scratch: which servers and racks the current plan touches
/// (stamped, never cleared), its per-rack worker totals, and the plan's
/// share of each rack uplink it would cross. Kept apart from the rest of
/// [`FlatBatch`] so a plan can write it while reading the ledger, the index
/// and the class table; the stamp trick bumps a counter instead of
/// clearing arrays, and scores are a pure function of the plan, never of
/// the stamp history.
#[derive(Debug, Default)]
struct PlanScratch {
    chosen_stamp: Vec<u32>,
    rack_stamp: Vec<u32>,
    stamp: u32,
    rack_workers: Vec<(RackId, u32)>,
    /// `C_r / (FC_r + n_r)` per entry of `rack_workers`.
    rack_share: Vec<f64>,
    /// Per [`PsTable`] uplink group: the fold of every plan rack's share
    /// and the group's own uplink carrying all of the plan's workers — the
    /// rack part of the hot-spot term of a PS outside the plan's racks.
    group_term: Vec<f64>,
}

/// Work done scoring PS candidates.
#[derive(Debug, Clone, Copy, Default)]
struct ScoreTally {
    /// Score evaluations performed.
    evals: u64,
    /// Plan-rack servers not evaluated: a lower-id server of the same PS
    /// class in the same rack already was.
    rack_skipped: u64,
    /// Plans whose score ceiling did not clear the best score so far, so
    /// none of their class representatives was evaluated.
    ruled_out: u64,
}

/// What one batch did, in plain fields: the batch loop and
/// [`place_one_flat`](NetPackPlacer::place_one_flat) add to it per job, and
/// [`record`](Self::record) folds it into the placer's perf counters once
/// per batch, as `record_waterfill` folds the estimator's counters. Each
/// group of counters is recorded only if its phase ran, so a phase no job
/// reached adds no name to the table, as it did not when every job
/// recorded its own.
#[derive(Debug, Default)]
struct BatchTally {
    place_one: TimerSlot,
    /// The index refresh of every job, and what the refreshes did.
    class_build: TimerSlot,
    refresh: RefreshStats,
    single_scan: TimerSlot,
    /// Candidate selection, and the servers offered to and kept by the
    /// filter.
    candidate_select: TimerSlot,
    dp_offered: u64,
    dp_kept: u64,
    worker_dp: TimerSlot,
    /// PS scoring, the plans it scored and the scorer's own tally.
    ps_scoring: TimerSlot,
    plans: u64,
    scored: ScoreTally,
    /// The eager push of every placed job.
    waterfill_solve: TimerSlot,
}

impl BatchTally {
    fn record(&self, perf: &mut PerfCounters) {
        if self.class_build.count() > 0 {
            perf.incr("index_rebuilds", self.refresh.rebuilds);
            perf.incr("index_rekeyed", self.refresh.rekeyed);
            perf.incr("index_renamed", self.refresh.renamed);
            perf.incr("index_slices", self.refresh.slices);
            perf.incr("index_journal_servers", self.refresh.journal_servers);
            perf.incr("index_classes", self.refresh.classes);
        }
        if self.candidate_select.count() > 0 {
            perf.incr("dp_candidates_offered", self.dp_offered);
            perf.incr("dp_candidates_kept", self.dp_kept);
        }
        if self.ps_scoring.count() > 0 {
            perf.incr("plans_considered", self.plans);
            perf.incr("ps_candidates_scored", self.scored.evals);
            perf.incr("ps_rack_servers_skipped", self.scored.rack_skipped);
            perf.incr("ps_plans_ruled_out", self.scored.ruled_out);
        }
        for (name, slot) in [
            ("place_one", self.place_one),
            ("class_build", self.class_build),
            ("single_scan", self.single_scan),
            ("candidate_select", self.candidate_select),
            ("worker_dp", self.worker_dp),
            ("ps_scoring", self.ps_scoring),
            ("waterfill_solve", self.waterfill_solve),
        ] {
            perf.record_slot(name, slot);
        }
    }
}

/// Keep `(score, sid)` in `best` if it wins under (max score, min server
/// id) — what the reference's ascending first-strictly-greater scan keeps.
fn consider(best: &mut Option<(f64, usize)>, score: f64, sid: usize) {
    if best.is_none_or(|(b, bsid)| score > b || (score == b && sid < bsid)) {
        *best = Some((score, sid));
    }
}

impl PlanScratch {
    /// Size the stamp arenas for a topology of `ns` servers and `nr` racks.
    /// Entries kept from an earlier topology hold stamps no later than the
    /// current one, so no later plan reads them as its own.
    fn resize(&mut self, ns: usize, nr: usize) {
        self.chosen_stamp.resize(ns, 0);
        self.rack_stamp.resize(nr, 0);
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
}

/// One live PS class as every plan of the current job scores it: the part
/// of [`NetPackPlacer::score_candidate_flat`] no plan changes.
#[derive(Debug, Clone, Copy)]
struct PsRow {
    /// The class's id in the PS partition, for its member list.
    class: u32,
    /// Lowest-id member.
    first: u32,
    /// Racks of the lowest- and highest-id member: equal when the class
    /// lies inside one rack.
    first_rack: u32,
    last_rack: u32,
    /// Index of the class's `(uplink flows, uplink capacity)` in
    /// [`PsTable::groups`].
    group: u32,
    /// `flows + 1`: the access link's flows with this job's PS flow added.
    flows1: u32,
    avail: f64,
    /// `(C − avail) / (f64::from(flows + 1) + 1.0)`.
    penalty: f64,
}

/// A class present in a rack: where its members there begin.
#[derive(Debug, Clone, Copy)]
struct RackEntry {
    /// Index into [`PsTable::rows`].
    row: u32,
    /// The class's lowest-id member in the rack, at `pos` in its member
    /// list.
    first: u32,
    pos: u32,
}

/// The per-job PS class table (module docs, mechanism 2): built once per
/// job from the refreshed index, read by every plan of that job.
#[derive(Debug)]
struct PsTable {
    /// Access-link capacity `C`, fixed for the batch's cluster.
    capacity: f64,
    /// Live classes in class-id order.
    rows: Vec<PsRow>,
    /// Distinct `(rack uplink flows, rack uplink capacity)` over `rows`.
    groups: Vec<(u32, f64)>,
    /// Per rack some plan of the job touches — `plan_racks` lists them —
    /// the classes present, as a range of `rack_entries`; empty for every
    /// other rack.
    rack_lists: Vec<Range<u32>>,
    plan_racks: Vec<usize>,
    rack_entries: Vec<RackEntry>,
    /// `(C / (f + 1), C / max(f, 1))` by flow count `f` — the two
    /// quotients of the hot-spot term that depend on `f_max` alone. Grown,
    /// never cleared: `C` is the batch's.
    hot: Vec<(f64, f64)>,
    /// Extremes over `rows` — the largest `avail`, the smallest `penalty`
    /// and the largest `flows1` — from which a plan bounds every
    /// representative's score ([`NetPackPlacer::score_plan_flat`]).
    avail_max: f64,
    penalty_min: f64,
    flows1_max: u32,
}

impl PsTable {
    fn new(capacity: f64) -> Self {
        PsTable {
            capacity,
            rows: Vec::new(),
            groups: Vec::new(),
            rack_lists: Vec::new(),
            plan_racks: Vec::new(),
            rack_entries: Vec::new(),
            hot: Vec::new(),
            avail_max: f64::NEG_INFINITY,
            penalty_min: f64::INFINITY,
            flows1_max: 0,
        }
    }

    /// Rebuild for the job whose plans are `plans`, from the PS partition
    /// as [`FlatBatch::refresh_index`] just left it.
    fn build(&mut self, topo: &FlatTopology, classes: &Partition<PsKey>, plans: &[WorkerPlan]) {
        self.rows.clear();
        self.groups.clear();
        self.avail_max = f64::NEG_INFINITY;
        self.penalty_min = f64::INFINITY;
        self.flows1_max = 0;
        for (class, (key, members)) in classes.classes().enumerate() {
            let (Some(&first), Some(&last)) = (members.front(), members.back()) else {
                continue;
            };
            let uplink = (key.fc_up, f64::from_bits(key.up_bits));
            let group = self
                .groups
                .iter()
                .position(|&g| g == uplink)
                .unwrap_or_else(|| {
                    self.groups.push(uplink);
                    self.groups.len() - 1
                });
            let avail = f64::from_bits(key.avail_bits);
            let flows1 = key.flows + 1;
            let penalty = (self.capacity - avail) / (f64::from(flows1) + 1.0);
            self.avail_max = self.avail_max.max(avail);
            self.penalty_min = self.penalty_min.min(penalty);
            self.flows1_max = self.flows1_max.max(flows1);
            self.rows.push(PsRow {
                class: class as u32,
                first,
                first_rack: topo.rack_of(first as usize) as u32,
                last_rack: topo.rack_of(last as usize) as u32,
                group: group as u32,
                flows1,
                avail,
                penalty,
            });
        }
        let f_max = plans
            .iter()
            .map(|p| p.max_flows)
            .fold(self.flows1_max, u32::max);
        for f in self.hot.len() as u32..=f_max {
            self.hot.push((
                self.capacity / (f64::from(f) + 1.0),
                self.capacity / f64::from(f.max(1)),
            ));
        }
        // A rack's list is filled by the first plan server found in it;
        // only the previous job's lists need emptying first.
        self.rack_entries.clear();
        self.rack_lists.resize(topo.num_racks(), 0..0);
        for rack in self.plan_racks.drain(..) {
            self.rack_lists[rack] = 0..0;
        }
        for &sid in plans.iter().flat_map(|p| &p.servers) {
            let rack = topo.rack_of(sid.0);
            if self.rack_lists[rack].is_empty() {
                self.rack_lists[rack] = self.fill_rack(topo, classes, rack);
                self.plan_racks.push(rack);
            }
        }
    }

    /// Append rack `rack`'s classes to `rack_entries`; returns their range
    /// (never empty: the rack has servers, each in a live class).
    fn fill_rack(
        &mut self,
        topo: &FlatTopology,
        classes: &Partition<PsKey>,
        rack: usize,
    ) -> Range<u32> {
        let servers = topo.rack_server_range(rack);
        let begin = self.rack_entries.len() as u32;
        for (row, r) in self.rows.iter().enumerate() {
            if (r.first_rack as usize) > rack || (r.last_rack as usize) < rack {
                continue;
            }
            let members = classes.members_of(r.class as usize);
            let pos = if r.first_rack as usize == rack {
                0
            } else {
                members.partition_point(|&m| (m as usize) < servers.start)
            };
            match members.get(pos) {
                Some(&first) if (first as usize) < servers.end => {
                    self.rack_entries.push(RackEntry {
                        row: row as u32,
                        first,
                        pos: pos as u32,
                    });
                }
                _ => {}
            }
        }
        begin..self.rack_entries.len() as u32
    }

    /// The classes present in `rack`, one of the current job's plan racks.
    fn rack_list(&self, rack: usize) -> &[RackEntry] {
        let list = &self.rack_lists[rack];
        &self.rack_entries[list.start as usize..list.end as usize]
    }
}

/// A batch over no cluster, holding no arrays; [`FlatBatch::reset`] makes
/// it one.
impl Default for FlatBatch {
    fn default() -> Self {
        FlatBatch {
            topo: FlatTopology::default(),
            ledger: GpuLedger::default(),
            index: ServerIndex::new(),
            ps_table: PsTable::new(0.0),
            scratch: PlanScratch::default(),
            ps_scored: Vec::new(),
            dp: DpArena::default(),
        }
    }
}

impl FlatBatch {
    /// A fresh batch over `cluster`: an empty one [`reset`](Self::reset)
    /// to it.
    pub(crate) fn new(cluster: &Cluster) -> Self {
        let mut fb = FlatBatch::default();
        fb.reset(cluster);
        fb
    }

    /// Make this a fresh batch over `cluster`, keeping the capacity of its
    /// arrays and nothing of their contents: the topology re-lowered (an
    /// O(racks) compare when the shape is the one it holds), the ledger
    /// re-mirrored from `cluster`'s allocation, the index emptied so the
    /// next refresh builds it cold, and the PS class table built anew for
    /// `cluster`'s server-link capacity.
    pub(crate) fn reset(&mut self, cluster: &Cluster) {
        self.topo.lower(cluster);
        self.ledger.reset(cluster);
        self.index.forget();
        self.ps_table = PsTable::new(cluster.spec().server_link_gbps);
        self.scratch
            .resize(self.topo.num_servers(), self.topo.num_racks());
    }

    /// The free-GPU ledger.
    pub(crate) fn ledger(&self) -> &GpuLedger {
        &self.ledger
    }

    /// Debit the ledger for a placement. Returns `false` (committing
    /// nothing) if any worker would overdraw — the DP guarantees this
    /// never happens, but the ledger refuses rather than panics.
    pub(crate) fn commit(&mut self, placement: &Placement) -> bool {
        let free = self.ledger.free();
        let fits = placement
            .workers()
            .iter()
            .all(|&(s, w)| w <= free[s.0] as usize);
        if fits {
            for &(s, w) in placement.workers() {
                self.ledger
                    .set_free(s.0, self.ledger.free()[s.0] - w as u32);
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
            self.ledger
                .set_free(s.0, self.ledger.free()[s.0] + w as u32);
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

    /// The hot-spot term of a PS that hosts none of the plan's workers —
    /// [`hotspot_term`](Self::hotspot_term) with every quotient looked up:
    /// `hot` is [`PsTable::hot`] at the candidate's `f_max`, `crossed` the
    /// fold of the shares on the rack uplinks the job would cross (`None`
    /// when plan and PS share one rack).
    fn table_term(&self, hot: (f64, f64), crossed: Option<f64>) -> f64 {
        let (share, literal) = hot;
        match (self.config.hotspot, crossed) {
            (HotSpotTerm::RewardBottleneckShare, None) => share,
            (HotSpotTerm::RewardBottleneckShare, Some(racks)) => share.min(racks),
            (HotSpotTerm::PaperLiteral, None) => -literal,
            (HotSpotTerm::PaperLiteral, Some(racks)) => -share.max(racks).max(literal),
        }
    }

    /// Best `(score, PS server)` of one plan under (max score, min id) —
    /// equal to the reference's ascending first-strictly-greater scan.
    ///
    /// A server hosting none of the plan's workers scores as a pure
    /// function of its [`PsKey`] class and of which plan rack, if any, it
    /// sits in; among servers of equal score only the lowest id can win.
    /// So the plan's own servers are scored one by one with the literal
    /// formula and everyone else through `fb`'s [`PsTable`] (built for
    /// this job): inside each plan rack the lowest-id unchosen member of
    /// each class there, outside the plan racks each class's lowest-id
    /// member there. `tally` counts the evaluations performed and the
    /// plan-rack servers they stood in for.
    ///
    /// `floor` is the best score an earlier plan of the job reached. A
    /// plan wins only by scoring strictly above it, so once its own
    /// servers are scored, a plan whose [`score_ceiling`](Self::score_ceiling)
    /// is `≤ floor` evaluates no representative and returns its own-server
    /// best: no representative can reach the floor, and an own server
    /// above it still wins the plan, with the same PS. A debug build walks
    /// such a plan's representatives anyway, asserting each one's score
    /// `≤ ceiling`, and neither considers nor counts them.
    #[allow(clippy::too_many_arguments)]
    fn score_plan_flat(
        &self,
        fb: &FlatBatch,
        ps: &mut PlanScratch,
        cluster: &Cluster,
        state: &SteadyState,
        capacity: f64,
        plan: &WorkerPlan,
        floor: Option<f64>,
        tally: &mut ScoreTally,
    ) -> Option<(f64, ServerId)> {
        let stamp = ps.begin(&fb.topo, fb.ledger.free(), plan);
        let table = &fb.ps_table;
        let classes = &fb.index.ps;
        let mut best: Option<(f64, usize)> = None;
        for &sid in &plan.servers {
            let score =
                self.score_candidate_flat(fb, ps, cluster, state, capacity, plan, sid.0, stamp);
            consider(&mut best, score, sid.0);
        }
        let own = plan.servers.len();
        tally.evals += own as u64;
        let ceiling = self.score_ceiling(table, plan);
        let ruled_out = floor.is_some_and(|floor| ceiling <= floor);
        tally.ruled_out += u64::from(ruled_out);
        if ruled_out && !cfg!(debug_assertions) {
            return best.map(|(score, sid)| (score, ServerId(sid)));
        }
        let pick = match self.config.hotspot {
            HotSpotTerm::RewardBottleneckShare => f64::min,
            HotSpotTerm::PaperLiteral => f64::max,
        };
        // `fold_rack_shares`, each quotient taken once per plan: the share
        // of every plan rack's uplink, then per uplink group the fold a PS
        // outside the plan racks sees — all of them and its own uplink
        // carrying every worker of the plan. A plan has servers, each with
        // free GPUs, so no rack adds zero flows.
        let rack_fc = state.rack_uplinks_flows();
        let share = |rack: usize, added: u32| {
            fb.topo.rack_uplink_gbps(rack) / f64::from(rack_fc[rack] + added)
        };
        ps.rack_share.clear();
        ps.rack_share
            .extend(ps.rack_workers.iter().map(|&(r, w)| share(r.0, w)));
        let workers: u32 = ps.rack_workers.iter().map(|&(_, w)| w).sum();
        let all = ps.rack_share.iter().copied().reduce(pick)?;
        ps.group_term.clear();
        ps.group_term.extend(
            table
                .groups
                .iter()
                .map(|&(fc, gbps)| pick(all, gbps / f64::from(fc + workers))),
        );
        let ps = &*ps;

        let score_row = |row: &PsRow, sid: usize, crossed: Option<f64>| {
            let f_max = plan.max_flows.max(row.flows1);
            let base = plan.value + row.avail - row.penalty;
            let score = base + self.table_term(table.hot[f_max as usize], crossed);
            debug_assert_eq!(
                score.to_bits(),
                self.score_candidate_flat(fb, ps, cluster, state, capacity, plan, sid, stamp)
                    .to_bits(),
                "server {sid}: the PS class table is not the index's"
            );
            score
        };
        let mut visit = |score: f64, sid: usize| {
            if ruled_out {
                debug_assert!(
                    score <= ceiling,
                    "server {sid}: {score} above the plan's ceiling {ceiling}"
                );
            } else {
                consider(&mut best, score, sid);
            }
        };
        // Representatives walked: in the plan racks, then in all.
        let mut reps = 0;
        let mut rack_servers = 0;
        for (ri, &(rack, w)) in ps.rack_workers.iter().enumerate() {
            // A PS in plan rack `rack` is crossed by every other plan
            // rack's workers: their uplinks, then its own carrying them.
            let others = ps.rack_share.iter().enumerate().filter(|&(i, _)| i != ri);
            let crossed = others
                .map(|(_, &q)| q)
                .reduce(pick)
                .map(|racks| pick(racks, share(rack.0, workers - w)));
            let servers = fb.topo.rack_server_range(rack.0);
            rack_servers += servers.len();
            for entry in table.rack_list(rack.0) {
                let row = &table.rows[entry.row as usize];
                // The class's lowest-id member here that the plan left
                // alone: step past chosen heads.
                let mut sid = entry.first as usize;
                if ps.chosen_stamp[sid] == stamp {
                    let members = classes.members_of(row.class as usize);
                    let unchosen = members
                        .range(entry.pos as usize + 1..)
                        .map(|&m| m as usize)
                        .take_while(|&m| m < servers.end)
                        .find(|&m| ps.chosen_stamp[m] != stamp);
                    match unchosen {
                        Some(m) => sid = m,
                        None => continue,
                    }
                }
                visit(score_row(row, sid, crossed), sid);
                reps += 1;
            }
        }
        // Every server of a plan rack was evaluated or stood in for.
        let rack_skipped = rack_servers - own - reps;
        // Members ascend and a rack is a contiguous id range, so a class's
        // first member past each plan rack is one binary search away.
        let first_outside = |class: u32| {
            let members = classes.members_of(class as usize);
            let mut at = 0;
            loop {
                let &m = members.get(at)?;
                let rack = fb.topo.rack_of(m as usize);
                if ps.rack_stamp[rack] != stamp {
                    return Some(m as usize);
                }
                let rack_end = fb.topo.rack_server_range(rack).end as u32;
                at = members.partition_point(|&x| x < rack_end);
            }
        };
        for row in &table.rows {
            let outside = if ps.rack_stamp[row.first_rack as usize] != stamp {
                Some(row.first as usize)
            } else if row.first_rack == row.last_rack {
                None // wholly inside one plan rack
            } else {
                first_outside(row.class)
            };
            let Some(sid) = outside else { continue };
            visit(
                score_row(row, sid, Some(ps.group_term[row.group as usize])),
                sid,
            );
            reps += 1;
        }
        if !ruled_out {
            tally.evals += reps as u64;
            tally.rack_skipped += rack_skipped as u64;
        }
        best.map(|(score, sid)| (score, ServerId(sid)))
    }

    /// An upper bound on the score of every class representative of
    /// `plan` — `plan.value + avail_max − penalty_min + T` in
    /// `score_row`'s association, `T` the largest hot-spot term any row
    /// can give: `C/(plan.max_flows + 1)`, or under the paper-literal sign
    /// `−C/max(f, 1)` at the largest `f_max` a row can ask for. Every
    /// rounded operation is monotone in each operand and every operand is
    /// at its extreme, so no margin is needed.
    fn score_ceiling(&self, table: &PsTable, plan: &WorkerPlan) -> f64 {
        let top = match self.config.hotspot {
            HotSpotTerm::RewardBottleneckShare => table.hot[plan.max_flows as usize].0,
            HotSpotTerm::PaperLiteral => {
                -table.hot[plan.max_flows.max(table.flows1_max) as usize].1
            }
        };
        plan.value + table.avail_max - table.penalty_min + top
    }

    /// `place_one` over the flat arrays: identical algorithm, integer
    /// indices, index-fed shortcut and selection, deduplicated scoring.
    /// Scores against `inc`'s steady state and drains its change journal.
    ///
    /// `clock` was lapped as the job began; each phase ends with a lap,
    /// so a phase that follows another starts on the same clock read, and
    /// what lies between two phases is lapped and dropped. A debug build's
    /// oracle runs inside the phase it checks.
    fn place_one_flat(
        &self,
        fb: &mut FlatBatch,
        cluster: &Cluster,
        inc: &mut IncrementalEstimator,
        job: &Job,
        clock: &mut Stopwatch,
        tally: &mut BatchTally,
    ) -> Option<Placement> {
        // Bring the server index up to date with whatever the ledger and
        // the estimator did since the last job.
        tally.refresh += fb.refresh_index(inc);
        debug_assert_eq!(fb.audit_index(inc), Ok(()));
        tally.class_build.add(clock.lap());
        let state = inc.state();

        // Single-server shortcut: tightest fit, ties toward the most
        // residual bandwidth, first wins (= the reference's `min_by`),
        // read off the filter classes' front members.
        let single = if fb.ledger.any_server_fits(job.gpus) {
            fb.index.tightest_fit(job.gpus)
        } else {
            None
        };
        debug_assert_eq!(
            single,
            fb.ledger
                .scan_tightest_fit(state.servers_available_gbps(), job.gpus)
        );
        tally.single_scan.add(clock.lap());
        if let Some(s) = single {
            return Some(Placement::local(ServerId(s), job.gpus));
        }

        // Index-fed candidate selection feeding the same pruned DP as the
        // reference (`ServerIndex::offer_candidates` says why the kept set
        // equals a full scan's).
        let capacity = cluster.spec().server_link_gbps;
        let gps = cluster.spec().gpus_per_server;
        let slack = gps;
        let fs_max = self.config.fs_max;
        let mut filter = CandidateFilter::new(gps, job.gpus, slack, Some(fs_max));
        fb.index
            .offer_candidates(capacity, job.gpus + slack, &mut filter);
        tally.candidate_select.add(clock.lap());
        tally.dp_offered += filter.offered();
        tally.dp_kept += filter.kept() as u64;
        let stats = filter.candidates();
        clock.lap();
        let plans = WorkerDp::new(fs_max).plans_in(&mut fb.dp, &stats, job.gpus, slack);
        tally.worker_dp.add(clock.lap());
        if plans.is_empty() {
            return None;
        }

        // PSPlacement: every plan against the one class table of this job.
        tally.plans += plans.len() as u64;
        fb.ps_table.build(&fb.topo, &fb.index.ps, &plans);
        let mut scratch = std::mem::take(&mut fb.scratch);
        let mut best: Option<(f64, usize, ServerId)> = None;
        for (pi, plan) in plans.iter().enumerate() {
            let floor = best.map(|(b, _, _)| b);
            if let Some((score, sid)) = self.score_plan_flat(
                fb,
                &mut scratch,
                cluster,
                state,
                capacity,
                plan,
                floor,
                &mut tally.scored,
            ) {
                if best.is_none_or(|(b, _, _)| score > b) {
                    best = Some((score, pi, sid));
                }
            }
        }
        fb.scratch = scratch;
        tally.ps_scoring.add(clock.lap());
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
                let score = self
                    .score_candidate_flat(fb, &scratch, cluster, state, capacity, plan, sid, stamp);
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
        // before it left (Algorithm 2 line 7), so every push is eager. One
        // stopwatch times every phase; its laps between two timed phases
        // (the commit, the outcome's copy of the job) are dropped.
        let mut tally = BatchTally::default();
        let mut clock = Stopwatch::start();
        for job in ordered {
            clock.lap();
            let begun = clock;
            let placed = self.place_one_flat(fb, cluster, inc, job, &mut clock, &mut tally);
            clock.lap();
            tally.place_one.add(clock.since(begun));
            match placed {
                Some(placement) if fb.commit(&placement) => {
                    clock.lap();
                    inc.push(cluster, PlacedJob::new(job.id, cluster, &placement));
                    tally.waterfill_solve.add(clock.lap());
                    outcome.placed.push((job.clone(), placement));
                }
                _ => outcome.deferred.push(job.clone()),
            }
        }
        tally.record(perf);
        // Step 4: selective INA over the steady state the estimator already
        // holds — running + placed, batch placements still INA-on.
        clock.lap();
        self.enable_ina(cluster, running, &mut outcome.placed, inc.state());
        perf.record("ina_enable", clock.lap());
        outcome
    }

    /// The stateless `place_batch`: reset the placer's kept [`FlatBatch`]
    /// to `(cluster, running)` and build an estimator from them, run the
    /// batch on the pair, keep the batch's arrays and drop the estimator.
    pub(crate) fn place_batch_flat(
        &mut self,
        cluster: &Cluster,
        running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        let mut perf = std::mem::take(&mut self.perf);
        let batch_start = Stopwatch::start();
        let mut fb = self.kept.0.take().unwrap_or_default();
        fb.reset(cluster);
        let running_placed: Vec<PlacedJob> = running.iter().map(|r| r.to_placed(cluster)).collect();
        let start = Stopwatch::start();
        let mut inc = IncrementalEstimator::new(cluster, &running_placed);
        perf.record("waterfill_solve", start.elapsed());
        let outcome = self.place_batch_on(&mut fb, &mut inc, cluster, running, batch, &mut perf);
        record_waterfill(&mut perf, *inc.stats());
        perf.record("place_batch", batch_start.elapsed());
        self.perf = perf;
        self.kept.0 = Some(fb);
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
        let booked: usize = out.placed.iter().map(|(_, p)| p.total_workers()).sum();
        assert!(booked <= c.free_gpus());
        for (_, p) in &out.placed {
            p.validate(&c, p.total_workers()).unwrap();
        }
    }

    /// A flow clamp wider than a `u8` places: at `fs_max = 300` a batch of
    /// spanning jobs, some over busy servers, is placed by the production
    /// path exactly as the literal algorithm places it.
    #[test]
    fn a_flow_clamp_above_254_places_like_the_reference() {
        let c = cluster(4, 4, 4);
        let config = NetPackConfig {
            fs_max: 300,
            ..NetPackConfig::default()
        };
        let batch: Vec<Job> = (0..12)
            .map(|i| job(i, [6, 3, 9, 5][i as usize % 4]))
            .collect();
        let out = NetPackPlacer::new(config.clone()).place_batch(&c, &[], &batch);
        let oracle = crate::reference::place_batch(&config, &c, &[], &batch);
        assert!(
            out.placed
                .iter()
                .filter(|(_, p)| p.workers().len() > 1)
                .count()
                > 2
        );
        assert_eq!(out.placed, oracle.placed);
        let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
        assert_eq!(ids(&out.deferred), ids(&oracle.deferred));
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
        assert!(matches!(
            fb.credit(&q),
            Err(TopologyError::ReleaseOverflow { .. })
        ));
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
                .filter_map(|row| {
                    row.split(',')
                        .next()?
                        .strip_suffix(" (ms)")
                        .map(str::to_string)
                })
                .collect()
        };
        let timed = timers(placer.perf());
        assert_eq!(timers(session.perf()), timed);
        for phase in [
            "place_batch",
            "place_one",
            "worker_dp",
            "ps_scoring",
            "ina_enable",
        ] {
            assert!(timed.iter().any(|t| t == phase), "{phase}");
        }
    }

    /// Every counter of a perf table as `name=value`, every timer as
    /// `name xcount`: what a batch did, without the wall clocks.
    fn work_done(perf: &PerfCounters) -> Vec<String> {
        let csv = perf.to_table().to_csv();
        csv.lines()
            .skip(1)
            .map(|row| {
                let cells: Vec<&str> = row.split(',').collect();
                match cells[0].strip_suffix(" (ms)") {
                    Some(timer) => format!("{timer} x{}", cells[2]),
                    None => format!("{}={}", cells[0], cells[1]),
                }
            })
            .collect()
    }

    /// The counters and timer counts of one small mixed batch, pinned:
    /// three local jobs, two spanning ones and one FindSubset defers. Each
    /// phase is tallied once per job that reaches it and the tally is
    /// folded into the perf counters once per batch, so a phase dropped
    /// or counted twice, or a counter no job touched showing up as a zero
    /// row, moves this list. The second spanning job joins the first's
    /// one-round component, which takes it in without a solve
    /// (`waterfill_warm_pushes=1`): one component solved, in one round.
    /// Its PS link, alone on its server but with a count the rack's pool
    /// could move, fills through a refinable class: that took
    /// `waterfill_lone_entries` from 2 to 3 and `waterfill_link_visits`
    /// from 5 to 3 (the round reads three classes and no ordinary link or
    /// entry, where it read two classes, the PS link, its entry, and the
    /// entry again in the freeze scan). `index_renamed` is a new row and
    /// reads 0 in both lists. On eight servers the `n / 8` rebuild takes
    /// any refresh that leaves two servers to move one by one, and every
    /// refresh here with a class to rename also has such servers, so the
    /// rebuild is certain before any rename is made; in the second list the
    /// one refresh that re-keys moves a server out of a class whose other
    /// members stay. No other count moved. `index_slices` is a new row and
    /// reads 0 in both lists.
    #[test]
    fn a_mixed_batch_tallies_every_phase_once() {
        let c = cluster(2, 4, 4);
        let batch: Vec<Job> = [4, 2, 6, 10, 3, 20]
            .iter()
            .enumerate()
            .map(|(i, &g)| job(i as u64, g))
            .collect();
        let mut placer = NetPackPlacer::default();
        let out = placer.place_batch(&c, &[], &batch);
        assert_eq!(
            out.deferred.iter().map(|j| j.id).collect::<Vec<_>>(),
            [JobId(5)]
        );
        let local = out.placed.iter().filter(|(_, p)| p.is_local()).count();
        assert_eq!((out.placed.len(), local), (5, 3));
        assert_eq!(
            work_done(placer.perf()),
            [
                "dp_candidates_kept=6",
                "dp_candidates_offered=6",
                "index_classes=11",
                "index_journal_servers=14",
                "index_rebuilds=6",
                "index_rekeyed=2",
                "index_renamed=0",
                "index_slices=0",
                "plans_considered=4",
                "ps_candidates_scored=20",
                "ps_plans_ruled_out=0",
                "ps_rack_servers_skipped=3",
                "waterfill_class_splits=0",
                "waterfill_components_solved=1",
                "waterfill_jobs_resolved=2",
                "waterfill_jobs_reused=3",
                "waterfill_link_visits=3",
                "waterfill_lone_entries=3",
                "waterfill_pushes=5",
                "waterfill_rounds=1",
                "waterfill_settles=5",
                "waterfill_staged_ops=5",
                "waterfill_unconverged=0",
                "waterfill_warm_pushes=1",
                "candidate_select x2",
                "class_build x5",
                "ina_enable x1",
                "place_batch x1",
                "place_one x5",
                "ps_scoring x2",
                "single_scan x5",
                "waterfill_solve x6",
                "worker_dp x2",
            ]
        );
        // A batch of local jobs never reaches the DP or PS scoring: their
        // counters and timers stay out of the table, not at zero.
        let mut placer = NetPackPlacer::default();
        placer.place_batch(&c, &[], &[job(0, 4), job(1, 2)]);
        assert_eq!(
            work_done(placer.perf()),
            [
                "index_classes=2",
                "index_journal_servers=1",
                "index_rebuilds=2",
                "index_rekeyed=1",
                "index_renamed=0",
                "index_slices=0",
                "waterfill_class_splits=0",
                "waterfill_components_solved=0",
                "waterfill_jobs_resolved=0",
                "waterfill_jobs_reused=0",
                "waterfill_link_visits=0",
                "waterfill_lone_entries=0",
                "waterfill_pushes=2",
                "waterfill_rounds=0",
                "waterfill_settles=2",
                "waterfill_staged_ops=2",
                "waterfill_unconverged=0",
                "waterfill_warm_pushes=0",
                "class_build x2",
                "ina_enable x1",
                "place_batch x1",
                "place_one x2",
                "single_scan x2",
                "waterfill_solve x3",
            ]
        );
    }

    /// The index of [`plan_scoring_equals_a_full_scan`] and 400 plans over
    /// it, with the job's [`PsTable`] built: 4 racks x 24 servers at 8:1,
    /// churned until it holds dead classes and a class that spans racks.
    /// `loaded` adds one more job with a worker on every server that has a
    /// GPU free, so that no server's access link is idle.
    fn churned_fixture(
        loaded: bool,
    ) -> (Cluster, FlatBatch, IncrementalEstimator, Vec<WorkerPlan>) {
        let c = Cluster::new(ClusterSpec {
            racks: 4,
            servers_per_rack: 24,
            gpus_per_server: 4,
            oversubscription: 8.0,
            ..ClusterSpec::paper_default()
        });
        let spr = 24;
        let mut fb = FlatBatch::new(&c);
        // Background: racks 0 and 1 carry the same uplink load (so their
        // idle servers share one PS class), rack 2 another. The job that
        // comes and goes inside rack 3 is re-keyed in and out server by
        // server, and leaves its classes dead.
        let background = [
            Placement::new(vec![(ServerId(1), 2), (ServerId(25), 2)], Some(ServerId(2))),
            Placement::new(
                vec![(ServerId(30), 3), (ServerId(50), 1), (ServerId(51), 1)],
                Some(ServerId(52)),
            ),
            Placement::new(
                vec![(ServerId(60), 4), (ServerId(61), 2)],
                Some(ServerId(61)),
            ),
            Placement::new(
                vec![(ServerId(80), 1), (ServerId(81), 1)],
                Some(ServerId(82)),
            ),
        ];
        let mut inc = IncrementalEstimator::new(&c, &[]);
        fb.refresh_index(&mut inc);
        for (i, p) in background.iter().enumerate() {
            assert!(fb.commit(p));
            inc.push(&c, PlacedJob::new(JobId(100 + i as u64), &c, p));
            fb.refresh_index(&mut inc);
        }
        assert_eq!(inc.pop(&c), Some(JobId(103)));
        fb.credit(&background[3]).unwrap();
        assert_eq!(fb.refresh_index(&mut inc).rebuilds, 0);
        if loaded {
            let everywhere: Vec<(ServerId, usize)> = (0..4 * spr)
                .filter(|&s| fb.ledger.free()[s] > 0)
                .map(|s| (ServerId(s), 1))
                .collect();
            let p = Placement::new(everywhere, Some(ServerId(0)));
            assert!(fb.commit(&p));
            inc.push(&c, PlacedJob::new(JobId(104), &c, &p));
            fb.refresh_index(&mut inc);
        }

        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = move |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        // Plans over exactly `1 + case % 4` racks, starting anywhere.
        let plans: Vec<WorkerPlan> = (0..400)
            .map(|case| {
                let (racks, from) = (1 + case % 4, below(4));
                let mut servers: Vec<ServerId> = Vec::new();
                for i in 0..racks + below(4) {
                    let s = ServerId((from + i % racks) % 4 * spr + below(spr));
                    if fb.ledger.free()[s.0] > 0 && !servers.contains(&s) {
                        servers.push(s);
                    }
                }
                WorkerPlan {
                    gpus: servers.iter().map(|s| fb.ledger.free()[s.0] as usize).sum(),
                    servers,
                    max_flows: below(6) as u32,
                    value: below(400) as f64 * 0.5,
                }
            })
            .filter(|plan| !plan.servers.is_empty())
            .collect();
        fb.ps_table.build(&fb.topo, &fb.index.ps, &plans);
        (c, fb, inc, plans)
    }

    /// A job of no GPU is left out of FindSubset and deferred, never handed
    /// to the single-server shortcut (where it would pick among full
    /// servers): the stateless placer, a session and the literal algorithm
    /// agree on every placement and deferral of a batch with two of them.
    #[test]
    fn a_zero_gpu_job_is_deferred_by_every_path() {
        let c = cluster(2, 4, 4);
        let mut batch: Vec<Job> = (0..8).map(|i| job(i, 1 + i as usize % 5)).collect();
        for i in [2, 5] {
            batch[i].gpus = 0;
        }
        let stateless = NetPackPlacer::default().place_batch(&c, &[], &batch);
        let warm = NetPackSession::new(c.clone(), NetPackConfig::default()).place_batch(&batch);
        let oracle = crate::reference::place_batch(&NetPackConfig::default(), &c, &[], &batch);
        let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
        assert_eq!(ids(&stateless.deferred), [JobId(2), JobId(5)]);
        assert_eq!(stateless.placed.len(), 6);
        for out in [&warm, &oracle] {
            assert_eq!(out.placed, stateless.placed);
            assert_eq!(ids(&out.deferred), ids(&stateless.deferred));
        }
    }

    /// Per plan, the table scorer must return what a scan of every server
    /// with the literal formula returns — winner and score bits — and its
    /// counters must add up: every plan-rack server evaluated or stood in
    /// for, one evaluation per class with a member outside. Plans over
    /// one to four racks, both hot-spot variants, on an index churn has
    /// left with dead classes and a class that spans racks; each path of
    /// the scorer is asserted taken: a chosen server alone of its class in
    /// its rack, chosen heads of a bigger class (the member-list step), a
    /// spanning class that begins in a plan rack (the fallback walk, ending
    /// outside or nowhere) and a class inside one plan rack (the O(1)
    /// skip). Three one-line mutations of `score_plan_flat` each fail it,
    /// in a release build too: folding *every* plan rack into a plan-rack
    /// PS's term (`i != ri` dropped), `workers` where its own uplink
    /// carries `workers - w`, and `continue` in place of the step past a
    /// chosen head.
    #[test]
    fn plan_scoring_equals_a_full_scan() {
        let (c, mut fb, inc, plans) = churned_fixture(false);
        let (n, spr) = (96, 24);
        let capacity = c.spec().server_link_gbps;
        let state = inc.state();
        let classes: Vec<Vec<usize>> = fb
            .index
            .ps
            .classes()
            .map(|(_, members)| members.iter().map(|&m| m as usize).collect())
            .collect();
        assert!(
            classes.iter().any(|members| members.is_empty()),
            "no dead class"
        );

        let mut scratch = std::mem::take(&mut fb.scratch);
        // [1, 2, 3, 4]-rack plans, then the scorer's paths.
        let mut rack_counts = [0; 4];
        let (mut alone, mut stepped, mut walked_out, mut walked_off, mut skipped) = (0, 0, 0, 0, 0);
        for hotspot in [
            HotSpotTerm::RewardBottleneckShare,
            HotSpotTerm::PaperLiteral,
        ] {
            let placer = NetPackPlacer::new(NetPackConfig {
                hotspot,
                ..NetPackConfig::default()
            });
            for (case, plan) in plans.iter().enumerate() {
                let mut tally = ScoreTally::default();
                let got = placer.score_plan_flat(
                    &fb,
                    &mut scratch,
                    &c,
                    state,
                    capacity,
                    plan,
                    None,
                    &mut tally,
                );
                let stamp = scratch.begin(&fb.topo, fb.ledger.free(), plan);
                let mut want: Option<(f64, ServerId)> = None;
                for sid in 0..n {
                    let score = placer
                        .score_candidate_flat(&fb, &scratch, &c, state, capacity, plan, sid, stamp);
                    if want.is_none_or(|(b, _)| score > b) {
                        want = Some((score, ServerId(sid)));
                    }
                }
                let bits =
                    |r: Option<(f64, ServerId)>| r.map(|(score, sid)| (score.to_bits(), sid));
                assert_eq!(bits(got), bits(want), "{hotspot:?} case {case}: {plan:?}");

                let in_plan = |s: usize| scratch.rack_stamp[s / spr] == stamp;
                let chosen = |s: usize| scratch.chosen_stamp[s] == stamp;
                let outside = classes
                    .iter()
                    .filter(|members| !members.iter().all(|&s| in_plan(s)));
                assert_eq!(
                    tally.evals + tally.rack_skipped,
                    (scratch.rack_workers.len() * spr + outside.count()) as u64,
                    "{hotspot:?} case {case}: {plan:?}"
                );
                rack_counts[scratch.rack_workers.len() - 1] += 1;
                for members in classes.iter().filter(|members| !members.is_empty()) {
                    let (first, last) = (members[0], members[members.len() - 1]);
                    for &(rack, _) in &scratch.rack_workers {
                        let here: Vec<usize> = members
                            .iter()
                            .copied()
                            .filter(|&s| s / spr == rack.0)
                            .collect();
                        alone += usize::from(here.len() == 1 && chosen(here[0]));
                        stepped += usize::from(here.len() > 1 && chosen(here[0]));
                    }
                    if in_plan(first) && first / spr == last / spr {
                        skipped += 1;
                    } else if in_plan(first) && members.iter().all(|&s| in_plan(s)) {
                        walked_off += 1;
                    } else if in_plan(first) {
                        walked_out += 1;
                    }
                }
            }
        }
        assert!(
            rack_counts.iter().all(|&plans| plans > 20),
            "{rack_counts:?}"
        );
        let paths = [alone, stepped, walked_out, walked_off, skipped];
        assert!(paths.iter().all(|&taken| taken > 20), "{paths:?}");
    }

    /// The score ceiling is sound and the skip it allows is exact. On the
    /// index of [`plan_scoring_equals_a_full_scan`], as it is and with
    /// every access link carrying a flow, under both hot-spot variants and
    /// per plan:
    ///
    /// * the ceiling is `plan.value + max avail − min penalty + T` over the
    ///   index's live classes, with `T` taken from the hot-spot formula;
    /// * no server the plan leaves alone — each scores as some class
    ///   representative does — scores above it;
    /// * under any floor below the plan's true best (the next float down,
    ///   one less, its own-server best, `−∞`), `score_plan_flat` returns
    ///   the winner and score bits it returns with no floor; more than 20
    ///   such calls rule the plan out, and more than 20 score it in full.
    ///
    /// Three one-line mutations of `score_ceiling` each fail it, in a debug
    /// and a release build: `- table.penalty_min` dropped (a looser bound,
    /// still sound, so only the first check sees it, and only on the loaded
    /// index, where the smallest penalty is not 0), `T` taken at
    /// `plan.max_flows + 1`, and `flows1_max` ignored under `PaperLiteral`
    /// (both also fail the second check).
    #[test]
    fn the_score_ceiling_bounds_every_representative() {
        // Calls under a floor below the plan's best: [ruled out, in full].
        let mut calls = [0usize; 2];
        for loaded in [false, true] {
            let (c, mut fb, inc, plans) = churned_fixture(loaded);
            let capacity = c.spec().server_link_gbps;
            let state = inc.state();
            let live: Vec<(f64, f64, u32)> = fb
                .index
                .ps
                .classes()
                .filter(|(_, members)| !members.is_empty())
                .map(|(key, _)| {
                    let avail = f64::from_bits(key.avail_bits);
                    (
                        avail,
                        (capacity - avail) / (f64::from(key.flows + 1) + 1.0),
                        key.flows + 1,
                    )
                })
                .collect();
            let avail_max = live.iter().map(|r| r.0).fold(f64::NEG_INFINITY, f64::max);
            let penalty_min = live.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
            let flows1_max = live.iter().map(|r| r.2).max().unwrap();
            assert_eq!(
                penalty_min > 0.0,
                loaded,
                "only an idle access link pays no penalty"
            );
            let mut scratch = std::mem::take(&mut fb.scratch);
            for hotspot in [
                HotSpotTerm::RewardBottleneckShare,
                HotSpotTerm::PaperLiteral,
            ] {
                let placer = NetPackPlacer::new(NetPackConfig {
                    hotspot,
                    ..NetPackConfig::default()
                });
                for (case, plan) in plans.iter().enumerate() {
                    let at = format!("loaded={loaded} {hotspot:?} case {case}");
                    let top = match hotspot {
                        HotSpotTerm::RewardBottleneckShare => {
                            capacity / (f64::from(plan.max_flows) + 1.0)
                        }
                        HotSpotTerm::PaperLiteral => {
                            -(capacity / f64::from(plan.max_flows.max(flows1_max).max(1)))
                        }
                    };
                    let ceiling = placer.score_ceiling(&fb.ps_table, plan);
                    assert_eq!(
                        ceiling.to_bits(),
                        (plan.value + avail_max - penalty_min + top).to_bits(),
                        "{at}"
                    );
                    let stamp = scratch.begin(&fb.topo, fb.ledger.free(), plan);
                    let mut own_best = f64::NEG_INFINITY;
                    for sid in 0..c.num_servers() {
                        let score = placer.score_candidate_flat(
                            &fb, &scratch, &c, state, capacity, plan, sid, stamp,
                        );
                        if scratch.chosen_stamp[sid] == stamp {
                            own_best = own_best.max(score);
                        } else {
                            assert!(
                                score <= ceiling,
                                "{at}: server {sid} scores {score} > {ceiling}"
                            );
                        }
                    }
                    let mut score = |floor: Option<f64>| {
                        let mut tally = ScoreTally::default();
                        let got = placer.score_plan_flat(
                            &fb,
                            &mut scratch,
                            &c,
                            state,
                            capacity,
                            plan,
                            floor,
                            &mut tally,
                        );
                        (
                            got.map(|(score, sid)| (score.to_bits(), sid)),
                            tally.ruled_out,
                        )
                    };
                    let (want, _) = score(None);
                    let best = f64::from_bits(want.expect("a plan has servers").0);
                    for floor in [best.next_down(), best - 1.0, own_best, f64::NEG_INFINITY] {
                        if floor < best {
                            let (got, ruled_out) = score(Some(floor));
                            assert_eq!(got, want, "{at}: floor {floor}");
                            calls[usize::from(ruled_out == 0)] += 1;
                        }
                    }
                }
            }
        }
        assert!(
            calls.iter().all(|&n| n > 20),
            "[ruled out, in full] = {calls:?}"
        );
    }

    /// The table is a reading of the index: one built before the index
    /// moved on scores stale classes, and the per-representative assertion
    /// of a debug build says so.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the PS class table is not the index's")]
    fn a_table_older_than_the_index_is_caught() {
        let c = cluster(32, 8, 4);
        let capacity = c.spec().server_link_gbps;
        let mut fb = FlatBatch::new(&c);
        let mut inc = IncrementalEstimator::new(&c, &[]);
        fb.refresh_index(&mut inc);
        let plan = WorkerPlan {
            servers: vec![ServerId(4), ServerId(30)],
            gpus: 8,
            max_flows: 1,
            value: 10.0,
        };
        fb.ps_table
            .build(&fb.topo, &fb.index.ps, std::slice::from_ref(&plan));
        // Rack 0's idle class loses its head to a job; the table still
        // scores server 0 as idle.
        let p = Placement::new(vec![(ServerId(0), 4), (ServerId(9), 4)], Some(ServerId(0)));
        assert!(fb.commit(&p));
        inc.push(&c, PlacedJob::new(JobId(0), &c, &p));
        assert_eq!(fb.refresh_index(&mut inc).rebuilds, 0);
        let mut scratch = std::mem::take(&mut fb.scratch);
        let mut tally = ScoreTally::default();
        NetPackPlacer::default().score_plan_flat(
            &fb,
            &mut scratch,
            &c,
            inc.state(),
            capacity,
            &plan,
            None,
            &mut tally,
        );
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
            fb.index
                .filter
                .classes()
                .map(|(_, m)| m)
                .collect::<Vec<_>>(),
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
