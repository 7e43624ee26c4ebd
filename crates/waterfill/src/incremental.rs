//! Incremental steady-state estimation: Algorithm 1 with a warm cache.
//!
//! A from-scratch [`estimate`](crate::estimate) re-solves every job every
//! time. The [`IncrementalEstimator`] keeps the converged [`SteadyState`]
//! and re-solves only the resource-connected components that changed — the
//! links, racks and PAT pools a pushed or removed job actually touches.
//! Components nothing touched keep their cached rates, flow counts and
//! residuals verbatim.
//!
//! # Stage, then settle
//!
//! The steady state is *consumed* only when somebody reads it (Algorithm 2
//! line 7 scores a job against it), so a change is split in two:
//!
//! * a **staged** op ([`stage_push`](IncrementalEstimator::stage_push),
//!   [`stage_remove_at`](IncrementalEstimator::stage_remove_at) /
//!   [`stage_remove`](IncrementalEstimator::stage_remove),
//!   [`stage_pop`](IncrementalEstimator::stage_pop)) does the bookkeeping
//!   only — the job list, the job's `job_rates` / `job_shards` entry, the
//!   unions of a push, and the touched resource nodes appended to a
//!   pending list. It costs the job, never the running set: no membership
//!   scan, no sort, no solve;
//! * [`settle`](IncrementalEstimator::settle) finds the dirty components
//!   from the pending nodes' roots, collects their members in one pass
//!   over the jobs, and solves each resulting component **once**, however
//!   many staged ops hit it.
//!
//! [`push`](IncrementalEstimator::push), [`remove`](IncrementalEstimator::remove),
//! [`pop`](IncrementalEstimator::pop) and
//! [`replace`](IncrementalEstimator::replace) are a staged op followed by a
//! settle — there is one code path. A caller that reads the state after
//! every op (a placement pass: each job is scored against what the
//! previous push left) uses those; a caller that applies many ops between
//! two reads (completions between two passes, a scheduling epoch's
//! placements) stages them and settles before it reads.
//!
//! # The invariant
//!
//! Whenever [`is_settled`](IncrementalEstimator::is_settled), the state is
//! **bit-identical** to `estimate(cluster, jobs in insertion order)` — a
//! function of the surviving job list alone, not of the history of ops or
//! of where the settles fell. [`estimate`](crate::estimate) itself solves
//! per component, members in insertion order, every component from virgin
//! resources, and `settle` replays exactly those solves on the dirty
//! components. `tests/properties.rs` pins it over random interleavings of
//! staged and eager ops. Between a staged op and the next settle the state
//! is *stale*, not wrong: jobs removed are gone from the maps, network
//! jobs pushed have no rate yet, and link numbers are those of the last
//! settle.
//!
//! # Invalidation rules
//!
//! A job's resource nodes are its links plus — only when it is
//! INA-enabled — the PAT pools of its switches. A union-find over resource
//! nodes names the components; a push unions the job's nodes at stage time.
//!
//! * A **push** dirties the (possibly merged) component its nodes now
//!   belong to. A push only ever unions, so the union-find stays exact and
//!   the settle pays no repair — the placement path's case.
//! * A **removal** dirties the component the job leaves, which may split
//!   now that the bridge is gone. Union-find supports no deletion, but
//!   components are node-disjoint: `settle` dissolves the nodes of every
//!   component that *lost* a job (its members' and the removed jobs'),
//!   re-joins the members, and regroups them by their new roots. Resources
//!   only a removed job touched return to full capacity.
//! * A **lone push into a one-round component** is absorbed, not
//!   re-solved. A solve that froze every member in its first round, no
//!   pool running dry, reports that round's level `δ`, kept per job. A
//!   settle holding one network push and no network removal applies the
//!   pushed job's round-1 arithmetic alone when the component it lands in
//!   is all at one `δ` and the job cannot lower it, freezes in round 1 and
//!   runs no pool dry (`absorb_push` checks each; `DESIGN.md` §3.6 has the
//!   argument): the solve would repeat every other number bit for bit.
//! * Ops staged in one window compose: a job pushed and removed between
//!   two settles leaves the components it bridged dirty, repaired and
//!   re-solved apart; several removals from one component cost one solve.
//!
//! # Change journal
//!
//! Every write to `SteadyState::{link_residual, link_flows}` after
//! construction happens in a settle, in one of three places: the reset of a
//! removed job's own nodes, the solve of a dirty component, which resets
//! and then fills exactly the links its members cross, and an absorbed
//! push, which writes the pushed job's links and no other. `settle`
//! records all three — the removed nodes from the pending list, the
//! component from the solver's own link list, the pushed job's links from
//! its run — in a journal
//! ([`journal`](IncrementalEstimator::journal)), so a consumer that caches
//! anything derived from per-link flows or residuals (the placement path's
//! server index) re-reads exactly the journalled links and then calls
//! [`clear_journal`](IncrementalEstimator::clear_journal). A per-link mark
//! keeps each link in the journal at most once until cleared, so an
//! estimator nobody drains (the flow simulator's) holds at most
//! `num_links` entries however long it runs. PAT pools are not journalled.
//!
//! # Which rates a settle wrote
//!
//! A consumer that caches something derived from *job rates* (the flow
//! simulator's per-job iteration time) needs the dual question answered:
//! not which links moved, but which jobs. The estimator keeps one stamp per
//! job, parallel to the job list and shifting with it: the number of the
//! counted settle that last solved the job, counted from 1 — the solve in
//! [`new`](IncrementalEstimator::new). A staged push takes the next
//! settle's number at once: a local job is never solved, and its infinite
//! rate is written when it is staged. A settle that absorbs a push writes
//! that job's rate alone, so it stamps that job alone: every other member
//! of its component keeps the `(rate, shards)` and the stamp it had.
//! [`solve_epoch`](IncrementalEstimator::solve_epoch) is the number of the
//! last counted settle, and
//! [`changed_since(seen)`](IncrementalEstimator::changed_since) lists every
//! job stamped above `seen`, so a reader that remembers the epoch of its
//! last read finds every job whose `(rate, shards)` may differ from its
//! copy — however many settles fell in between — and every job it does not
//! find is bit-equal. The store is bounded by the running set, there is
//! nothing to clear, and a caller that never reads pays one integer store
//! per re-solved job.
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
    absorb_push, empty_state, group_components, link_capacity, solve_component, union_jobs, Dsu,
    PlacedJob, SolveScratch,
};
use crate::SteadyState;
use netpack_topology::{Cluster, JobId};
use std::ops::{Add, Sub};

/// Work counters for one estimator instance.
///
/// Every settle that follows at least one staged op accounts for each
/// network job in the estimate once — re-solved or reused — so
/// `jobs_reused / (jobs_resolved + jobs_reused)` is the fraction of
/// water-filling work the cache saved over a from-scratch solve at each
/// settle, and `staged / settles` is how many ops one solve absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaterfillStats {
    /// Jobs added (`push`, `stage_push`, and the push half of `replace`).
    pub pushes: u64,
    /// Jobs taken out (`remove`, `pop`, their staged forms, and the remove
    /// half of `replace`).
    pub removes: u64,
    /// Ops staged, eager ones included (each stages one): `pushes +
    /// removes` since construction.
    pub staged: u64,
    /// Settles that had at least one staged op to absorb.
    pub settles: u64,
    /// Network jobs actually water-filled (at construction and in settles),
    /// an absorbed push's one job included.
    pub jobs_resolved: u64,
    /// Network jobs whose converged rates a settle kept from the snapshot
    /// instead of re-solving: the network jobs in the estimate minus the
    /// members it re-solved, once per counted settle.
    pub jobs_reused: u64,
    /// Resource-connected components re-solved.
    pub components_solved: u64,
    /// Pushes a settle absorbed into a one-round component without
    /// re-solving it (see "Invalidation rules"): each solved one job and
    /// counted no component and no round.
    pub warm_pushes: u64,
    /// Filling rounds run by those solves.
    pub rounds: u64,
    /// What the filling rounds read, summed over them: the live ordinary
    /// links and the live classes of both kinds in the share minimum, the
    /// live entries (those of unfrozen jobs) in the augment, and the live
    /// entries again in a round that scans them for the jobs to freeze —
    /// one where an ordinary link saturated and the pinned classes' owners
    /// left someone unfrozen — the solver's unit of work. A frozen job's
    /// entries that wait in the list for a bulk drop are walked but not
    /// counted, so the count is a function of the rounds alone.
    pub link_visits: u64,
    /// Arena entries filled through a class instead of one by one —
    /// steady or refinable, an entry alone on its server access link —
    /// summed over the solves: `lone_entries` against the entries of the
    /// jobs re-solved is the share of a round's subtractions the classes
    /// stand in for.
    pub lone_entries: u64,
    /// Refinable classes opened at a PAT flip: each is the links of one
    /// class whose count moved to one new value in one round.
    pub class_splits: u64,
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
            staged: self.staged + other.staged,
            settles: self.settles + other.settles,
            jobs_resolved: self.jobs_resolved + other.jobs_resolved,
            jobs_reused: self.jobs_reused + other.jobs_reused,
            components_solved: self.components_solved + other.components_solved,
            warm_pushes: self.warm_pushes + other.warm_pushes,
            rounds: self.rounds + other.rounds,
            link_visits: self.link_visits + other.link_visits,
            lone_entries: self.lone_entries + other.lone_entries,
            class_splits: self.class_splits + other.class_splits,
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
            staged: self.staged - before.staged,
            settles: self.settles - before.settles,
            jobs_resolved: self.jobs_resolved - before.jobs_resolved,
            jobs_reused: self.jobs_reused - before.jobs_reused,
            components_solved: self.components_solved - before.components_solved,
            warm_pushes: self.warm_pushes - before.warm_pushes,
            rounds: self.rounds - before.rounds,
            link_visits: self.link_visits - before.link_visits,
            lone_entries: self.lone_entries - before.lone_entries,
            class_splits: self.class_splits - before.class_splits,
            unconverged: self.unconverged - before.unconverged,
        }
    }
}

/// A union-find root no pending node has named in this settle.
const CLEAN: u8 = 0;
/// Root of a component a staged push landed in.
const DIRTY: u8 = 1;
/// Root of a component a staged removal left: dirty, and its union-find
/// entries may join jobs the removed one no longer bridges.
const LOST: u8 = 2;

/// Algorithm 1 with a warm cache: ops are staged, and a settle re-solves
/// each component they touched once.
///
/// See the [module docs](self) for the stage/settle split, the
/// invalidation rules and the bit-identical equivalence guarantee. All
/// methods must be called with a cluster topologically identical to the
/// one passed to [`new`](Self::new).
#[derive(Debug, Clone)]
pub struct IncrementalEstimator {
    /// Every job in the estimate, in insertion order (solve order).
    jobs: Vec<PlacedJob>,
    /// Parallel to `jobs`: the number of the counted settle that last wrote
    /// the job's rate (see "Which rates a settle wrote").
    stamps: Vec<u64>,
    /// Parallel to `jobs`: the one-round level of the component the job was
    /// last solved in (see `solve_component`), NaN when it had none or the
    /// job awaits its first settle.
    levels: Vec<f64>,
    /// Per rack: the INA switch occurrences of every job in the estimate
    /// there — the denominator of the rack's round-1 PAT share.
    pool_jobs: Vec<u32>,
    /// The number of the last counted settle; the solve in `new` is 1.
    epoch: u64,
    /// Union-find over resource nodes (links, then rack PAT pools). Exact
    /// when settled; between settles a superset (removals are not undone
    /// until the next settle repairs them).
    dsu: Dsu,
    /// The converged steady state as of the last settle, with the job maps
    /// already following the staged ops.
    state: SteadyState,
    stats: WaterfillStats,
    /// Count of network jobs in `jobs`, maintained by the staged ops so the
    /// reuse accounting never rescans them.
    network_jobs: u64,
    /// `cluster.num_links()`: where PAT-pool nodes start.
    n_links: usize,
    /// One node of every network job pushed since the last settle.
    pending_pushed: Vec<usize>,
    /// Every node of every network job removed since the last settle.
    pending_removed: Vec<usize>,
    /// Whether any op, a local job's included, was staged since the last
    /// settle.
    unsettled: bool,
    /// Per node: [`CLEAN`] outside a settle; inside one, what the pending
    /// lists said about the component a root stands for.
    root_mark: Vec<u8>,
    /// Arena: the roots marked by the settle in progress.
    scratch_roots: Vec<usize>,
    /// Arena: `(root, job index)` of every member of a dirty component.
    scratch_members: Vec<(usize, usize)>,
    /// Arena: the member indices of the one component being solved.
    scratch_group: Vec<usize>,
    /// The solver's arenas (three of them cluster-sized).
    scratch_solve: SolveScratch,
    journal: Journal,
}

/// Links written since the last [`clear`](Journal::clear), each at most
/// once (see the module docs).
#[derive(Debug, Clone)]
struct Journal {
    links: Vec<u32>,
    /// `marked[link]`: the link is already in `links`.
    marked: Vec<bool>,
}

impl Journal {
    fn record(&mut self, link: usize) {
        if !std::mem::replace(&mut self.marked[link], true) {
            self.links.push(link as u32);
        }
    }

    fn clear(&mut self) {
        for &link in &self.links {
            self.marked[link as usize] = false;
        }
        self.links.clear();
    }
}

impl IncrementalEstimator {
    /// Solve the steady state of `jobs` from scratch and snapshot it.
    pub fn new(cluster: &Cluster, jobs: &[PlacedJob]) -> Self {
        let mut state = empty_state(cluster, jobs);
        let mut stats = WaterfillStats::default();
        let mut scratch_solve = SolveScratch::new(cluster);
        // One union-find both groups the jobs for the solve and is kept.
        let mut dsu = union_jobs(cluster, jobs);
        let mut levels = vec![f64::NAN; jobs.len()];
        if !jobs.is_empty() {
            for group in group_components(&mut dsu, jobs) {
                let level = solve_component(
                    cluster,
                    jobs,
                    &group,
                    &mut state,
                    &mut scratch_solve,
                    &mut stats,
                );
                for &i in &group {
                    levels[i] = level.unwrap_or(f64::NAN);
                }
            }
        }
        let mut pool_jobs = vec![0; cluster.num_racks()];
        for &r in jobs.iter().flat_map(PlacedJob::pools) {
            pool_jobs[r] += 1;
        }
        let n_links = cluster.num_links();
        let n_nodes = n_links + cluster.num_racks();
        IncrementalEstimator {
            jobs: jobs.to_vec(),
            stamps: vec![1; jobs.len()],
            levels,
            pool_jobs,
            epoch: 1,
            dsu,
            state,
            stats,
            network_jobs: jobs.iter().filter(|j| j.is_network()).count() as u64,
            n_links,
            pending_pushed: Vec::new(),
            pending_removed: Vec::new(),
            unsettled: false,
            root_mark: vec![CLEAN; n_nodes],
            scratch_roots: Vec::new(),
            scratch_members: Vec::new(),
            scratch_group: Vec::new(),
            scratch_solve,
            journal: Journal { links: Vec::new(), marked: vec![false; n_links] },
        }
    }

    /// The steady state over the jobs in the estimate: exact (equal to a
    /// from-scratch [`estimate`](crate::estimate)) whenever
    /// [`is_settled`](Self::is_settled), stale in the way the module docs
    /// describe between a staged op and the next [`settle`](Self::settle).
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

    /// Whether no op has been staged since the last
    /// [`settle`](Self::settle) — the condition under which
    /// [`state`](Self::state) is exact.
    pub fn is_settled(&self) -> bool {
        !self.unsettled
    }

    /// Flat indices (`LinkId::index`) of the links whose flows or residual
    /// may have changed since construction or the last
    /// [`clear_journal`](Self::clear_journal) — every link of every
    /// component a settle re-solved, of every job it removed and of every
    /// push it absorbed — each
    /// listed once, in no particular order (a component's links arrive in
    /// the order its members' runs name them). At most `num_links`
    /// entries.
    pub fn journal(&self) -> &[u32] {
        &self.journal.links
    }

    /// Forget the journalled links: the caller has caught up with them.
    pub fn clear_journal(&mut self) {
        self.journal.clear();
    }

    /// The number of the last counted settle (the solve in
    /// [`new`](Self::new) is 1): what a reader of
    /// [`changed_since`](Self::changed_since) remembers as `seen`.
    pub fn solve_epoch(&self) -> u64 {
        self.epoch
    }

    /// The jobs whose rate a settle numbered above `seen` wrote — every job
    /// of every component solved since, and every job pushed since (an
    /// absorbed push writes its own rate only) — each
    /// once, in insertion order. Read it when
    /// [`is_settled`](Self::is_settled), then remember
    /// [`solve_epoch`](Self::solve_epoch): a surviving job not listed has
    /// the `(rate, shards)` it had at epoch `seen`, bit for bit. `seen = 0`
    /// lists every job.
    pub fn changed_since(&self, seen: u64) -> impl Iterator<Item = JobId> + '_ {
        self.jobs
            .iter()
            .zip(&self.stamps)
            .filter(move |&(_, &stamp)| stamp > seen)
            .map(|(job, _)| job.id())
    }

    fn staged_one(&mut self) {
        self.stats.staged += 1;
        self.unsettled = true;
    }

    /// Add `job` to the estimate without solving: its component is dirty
    /// until the next [`settle`](Self::settle).
    pub fn stage_push(&mut self, job: PlacedJob) {
        self.stats.pushes += 1;
        self.staged_one();
        self.state.job_shards.insert(job.id(), job.shards());
        for &r in job.pools() {
            self.pool_jobs[r] += 1;
        }
        match self.dsu.union_all(job.nodes(self.n_links)) {
            Some(anchor) => {
                self.network_jobs += 1;
                self.pending_pushed.push(anchor);
            }
            // Local job: infinite rate, touches nothing.
            None => drop(self.state.job_rates.insert(job.id(), f64::INFINITY)),
        }
        // The next counted settle's number: it solves a network job, and a
        // local one, which no settle solves, had its rate written above.
        self.stamps.push(self.epoch + 1);
        self.levels.push(f64::NAN);
        self.jobs.push(job);
    }

    /// Take the job at position `idx` of the insertion order out of the
    /// estimate without solving — for callers that mirror that order and
    /// so know the position. `id` is a cross-check, not a key: returns
    /// `false` (and changes nothing) unless the job at `idx` is `id`.
    pub fn stage_remove_at(&mut self, idx: usize, id: JobId) -> bool {
        if self.jobs.get(idx).map(PlacedJob::id) != Some(id) {
            return false;
        }
        self.stats.removes += 1;
        self.staged_one();
        let job = self.jobs.remove(idx);
        self.stamps.remove(idx);
        self.levels.remove(idx);
        for &r in job.pools() {
            self.pool_jobs[r] -= 1;
        }
        self.state.job_rates.remove(&id);
        self.state.job_shards.remove(&id);
        if job.is_network() {
            self.network_jobs -= 1;
            self.pending_removed.extend(job.nodes(self.n_links));
        }
        true
    }

    /// [`stage_remove_at`](Self::stage_remove_at) after a scan for `id`.
    /// Returns `false` (and changes nothing) when `id` is not in the
    /// estimate.
    pub fn stage_remove(&mut self, id: JobId) -> bool {
        match self.jobs.iter().position(|j| j.id() == id) {
            Some(idx) => self.stage_remove_at(idx, id),
            None => false,
        }
    }

    /// Stage the removal of the most recently pushed job. Returns its id,
    /// or `None` when the estimate is empty.
    pub fn stage_pop(&mut self) -> Option<JobId> {
        let id = self.jobs.last()?.id();
        self.stage_remove_at(self.jobs.len() - 1, id);
        Some(id)
    }

    /// Absorb every op staged since the last settle: re-solve each
    /// component they touched once, from virgin resources, members in
    /// insertion order — or, for a lone push the module docs' rule admits,
    /// apply that job's round-1 arithmetic alone. Afterwards
    /// [`state`](Self::state) is bit-identical to `estimate(cluster,
    /// jobs_in_insertion_order)`. A no-op (not even counted) when nothing
    /// is staged.
    pub fn settle(&mut self, cluster: &Cluster) {
        if !self.unsettled {
            return;
        }
        self.unsettled = false;
        self.stats.settles += 1;
        self.epoch += 1;
        let resolved_before = self.stats.jobs_resolved;
        if !(self.pending_pushed.is_empty() && self.pending_removed.is_empty()) {
            self.solve_pending(cluster);
        }
        let resolved = self.stats.jobs_resolved - resolved_before;
        self.stats.jobs_reused += self.network_jobs - resolved;
    }

    fn solve_pending(&mut self, cluster: &Cluster) {
        let n_links = self.n_links;
        // The dirty components, by root; one that lost a job outranks one
        // that only gained.
        let mut roots = std::mem::take(&mut self.scratch_roots);
        for (pending, mark) in [(&self.pending_pushed, DIRTY), (&self.pending_removed, LOST)] {
            for &node in pending {
                let root = self.dsu.find(node);
                if self.root_mark[root] == CLEAN {
                    roots.push(root);
                }
                self.root_mark[root] = self.root_mark[root].max(mark);
            }
        }
        // Their members, in global insertion order — the order a
        // from-scratch solve would use.
        let mut members = std::mem::take(&mut self.scratch_members);
        for (i, job) in self.jobs.iter().enumerate() {
            if let Some(anchor) = job.anchor() {
                let root = self.dsu.find(anchor);
                if self.root_mark[root] != CLEAN {
                    members.push((root, i));
                }
            }
        }
        let removed = std::mem::take(&mut self.pending_removed);
        if !removed.is_empty() {
            // Union-find supports no deletion, but components are
            // node-disjoint: every node of a component that lost a job is
            // one of its members' or one of the removed jobs', so
            // dissolving exactly those and re-joining the members leaves
            // every other component's forest untouched. A component that
            // only gained jobs is exact already and skips this.
            for &node in &removed {
                self.dsu.isolate(node);
            }
            for &(root, i) in &members {
                if self.root_mark[root] == LOST {
                    for node in self.jobs[i].nodes(n_links) {
                        self.dsu.isolate(node);
                    }
                }
            }
            for &(root, i) in &members {
                if self.root_mark[root] == LOST {
                    self.dsu.union_all(self.jobs[i].nodes(n_links));
                }
            }
            // The component may have split: regroup by the new roots.
            for (root, i) in &mut members {
                if self.root_mark[*root] == LOST {
                    if let Some(anchor) = self.jobs[*i].anchor() {
                        *root = self.dsu.find(anchor);
                    }
                }
            }
            // Resources only a removed job touched return to (and stay
            // at) full capacity, exactly as a from-scratch solve would
            // leave them; the solves below reset the rest.
            self.reset_nodes(cluster, &removed);
        }
        for root in roots.drain(..) {
            self.root_mark[root] = CLEAN;
        }
        // `(root, index)` order: one run per component, each in insertion
        // order. Already sorted when one component is dirty.
        members.sort_unstable();
        let mut group = std::mem::take(&mut self.scratch_group);
        // A lone network push, no removal: one dirty component, the pushed
        // job its last member, which a one-round component may take in
        // without a solve.
        if removed.is_empty() && self.pending_pushed.len() == 1 {
            group.clear();
            group.extend(members.iter().map(|&(_, i)| i));
            if self.absorb(cluster, &group) {
                members.clear();
            }
        }
        for component in members.chunk_by(|a, b| a.0 == b.0) {
            group.clear();
            for &(_, i) in component {
                group.push(i);
                self.stamps[i] = self.epoch;
            }
            let level = solve_component(
                cluster,
                &self.jobs,
                &group,
                &mut self.state,
                &mut self.scratch_solve,
                &mut self.stats,
            );
            for &i in &group {
                self.levels[i] = level.unwrap_or(f64::NAN);
            }
            for &link in self.scratch_solve.links() {
                self.journal.record(link);
            }
        }
        members.clear();
        self.scratch_members = members;
        self.scratch_group = group;
        self.scratch_roots = roots;
        self.pending_pushed.clear();
        self.pending_removed = removed;
        self.pending_removed.clear();
    }

    /// Take the last of `group` — a component's members in insertion order,
    /// the one pushed network job last — into the settled state through
    /// [`absorb_push`]: on success it alone is written, stamped and
    /// journalled, and `false` means nothing was touched.
    fn absorb(&mut self, cluster: &Cluster, group: &[usize]) -> bool {
        let (jobs, levels, pools) = (&self.jobs, &self.levels, &self.pool_jobs);
        let absorbed = absorb_push(cluster, jobs, group, levels, pools, &mut self.state);
        let (Some(level), Some(&j)) = (absorbed, group.last()) else {
            return false;
        };
        self.stats.warm_pushes += 1;
        self.stats.jobs_resolved += 1;
        // Its stamp is already this settle's number: `stage_push` wrote it.
        self.levels[j] = level;
        for link in self.jobs[j].links() {
            self.journal.record(link);
        }
        true
    }

    /// Return the resource nodes of removed jobs to virgin capacity and
    /// journal the links among them — the only place cached link numbers
    /// are written outside [`solve_component`].
    fn reset_nodes(&mut self, cluster: &Cluster, nodes: &[usize]) {
        for &node in nodes {
            match node.checked_sub(self.n_links) {
                None => {
                    self.state.link_residual[node] = link_capacity(cluster, node);
                    self.state.link_flows[node] = 0;
                    self.journal.record(node);
                }
                Some(rack) => self.state.pat_residual[rack] = cluster.racks()[rack].pat_gbps(),
            }
        }
    }

    /// Add `job` and re-solve only the component it lands in:
    /// [`stage_push`](Self::stage_push), then [`settle`](Self::settle).
    ///
    /// The resulting [`state`](Self::state) is bit-identical to
    /// `estimate(cluster, all_jobs_so_far)`.
    pub fn push(&mut self, cluster: &Cluster, job: PlacedJob) {
        self.stage_push(job);
        self.settle(cluster);
    }

    /// Remove the job `id` and re-solve only the component it leaves:
    /// [`stage_remove`](Self::stage_remove), then [`settle`](Self::settle).
    ///
    /// The former component may split now that the removed job's resources
    /// no longer bridge its co-members; each surviving sub-component is
    /// re-filled from virgin capacity in global insertion order, so the
    /// resulting [`state`](Self::state) is bit-identical to
    /// `estimate(cluster, remaining_jobs_in_insertion_order)`. Returns
    /// `false` (and changes nothing) when `id` is not in the estimate.
    pub fn remove(&mut self, cluster: &Cluster, id: JobId) -> bool {
        let staged = self.stage_remove(id);
        self.settle(cluster);
        staged
    }

    /// Remove the most recently pushed job — the exact inverse of
    /// [`push`](Self::push), which is what a depth-first search needs to
    /// backtrack one decision: [`stage_pop`](Self::stage_pop), then
    /// [`settle`](Self::settle). Counted under
    /// [`removes`](WaterfillStats::removes). Returns the popped job's id,
    /// or `None` when the estimate is empty.
    pub fn pop(&mut self, cluster: &Cluster) -> Option<JobId> {
        let id = self.stage_pop();
        self.settle(cluster);
        id
    }

    /// Re-tune a job in place: stage the removal of any existing job with
    /// `job`'s id and the push of `job`, then settle once. The result is
    /// bit-identical to a from-scratch solve over the current job list
    /// with the re-tuned job moved to the end of the insertion order.
    pub fn replace(&mut self, cluster: &Cluster, job: PlacedJob) {
        self.stage_remove(job.id());
        self.stage_push(job);
        self.settle(cluster);
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

    /// Bitwise equality of every number in the two states.
    fn assert_state_eq(a: &SteadyState, b: &SteadyState) {
        assert_eq!(a.first_difference(b), None);
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
    fn staged_removals_from_one_component_settle_in_one_solve() {
        // Four jobs funnel into one PS server: one component. Two of them
        // finish between two reads.
        let c = cluster(1, 6, 500.0);
        let all: Vec<PlacedJob> = (0..4).map(|i| job(i, &c, vec![(i as usize, 2)], 5)).collect();
        let mut inc = IncrementalEstimator::new(&c, &all);
        let before = *inc.stats();
        assert!(inc.stage_remove_at(1, JobId(1)));
        assert!(!inc.is_settled());
        assert!(inc.stage_remove(JobId(3)));
        // Staging moved the maps, not the links.
        assert_eq!(inc.state().job_rate_gbps(JobId(1)), None);
        assert_eq!(inc.stats().components_solved, before.components_solved);
        inc.settle(&c);
        assert!(inc.is_settled());
        let work = *inc.stats() - before;
        assert_eq!((work.staged, work.settles, work.components_solved), (2, 1, 1));
        assert_eq!((work.jobs_resolved, work.jobs_reused), (2, 0));
        assert_state_eq(inc.state(), &estimate(&c, &[all[0].clone(), all[2].clone()]));
        // Nothing staged: a settle is free and uncounted.
        inc.settle(&c);
        assert_eq!(*inc.stats() - before, work);
    }

    #[test]
    fn bridge_pushed_and_removed_in_one_window_is_repaired_away() {
        // The bridge's unions join racks 0 and 1 at stage time; its removal
        // in the same window must dissolve them again, solve the two
        // survivors apart, and journal the access link only it touched.
        let c = cluster(2, 3, 500.0);
        let a = job(0, &c, vec![(0, 1), (1, 1)], 2);
        let b = job(1, &c, vec![(3, 1), (4, 1)], 3);
        let mut inc = IncrementalEstimator::new(&c, &[a.clone(), b.clone()]);
        let before = *inc.stats();
        inc.stage_push(job(2, &c, vec![(0, 1), (3, 1)], 5));
        assert_eq!(inc.stage_pop(), Some(JobId(2)));
        inc.settle(&c);
        let work = *inc.stats() - before;
        assert_eq!((work.staged, work.settles, work.components_solved), (2, 1, 2));
        assert_state_eq(inc.state(), &estimate(&c, &[a, b.clone()]));
        assert!(inc.journal().contains(&5), "server 5 carried only the bridge's PS");
        // The repair was real: a removal in rack 0 now leaves rack 1 alone.
        let before = *inc.stats();
        inc.remove(&c, JobId(0));
        assert_eq!((*inc.stats() - before).jobs_reused, 1);
        assert_state_eq(inc.state(), &estimate(&c, &[b]));
    }

    #[test]
    fn changed_since_lists_the_solved_components_and_nothing_else() {
        // Rack 0 holds two jobs sharing a PS link, rack 1 one job alone.
        let c = cluster(2, 4, 500.0);
        let all = [
            job(0, &c, vec![(0, 2)], 3),
            job(1, &c, vec![(1, 2)], 3),
            job(2, &c, vec![(4, 1), (5, 1)], 6),
        ];
        let mut inc = IncrementalEstimator::new(&c, &all);
        let changed = |inc: &IncrementalEstimator, seen| inc.changed_since(seen).collect::<Vec<_>>();
        assert_eq!(inc.solve_epoch(), 1);
        assert_eq!(changed(&inc, 0), [JobId(0), JobId(1), JobId(2)]);
        assert_eq!(changed(&inc, 1), []);
        // Two settles between reads: a local job arrives, then job 0 leaves
        // rack 0. The reader finds the newcomer and job 0's neighbour; rack
        // 1 was not re-solved and is not listed.
        inc.push(&c, PlacedJob::new(JobId(9), &c, &Placement::local(ServerId(7), 2)));
        assert!(inc.remove(&c, JobId(0)));
        assert_eq!(inc.solve_epoch(), 3);
        assert_eq!(changed(&inc, 1), [JobId(1), JobId(9)]);
        assert_eq!(changed(&inc, 2), [JobId(1)]);
        assert_eq!(changed(&inc, 3), []);
        // An empty settle is not counted and moves no number.
        inc.settle(&c);
        assert_eq!(inc.solve_epoch(), 3);
    }

    #[test]
    fn stage_remove_at_refuses_a_mismatched_position() {
        let c = cluster(1, 4, 500.0);
        let all = [job(0, &c, vec![(0, 1), (1, 1)], 2), job(1, &c, vec![(0, 2)], 3)];
        let mut inc = IncrementalEstimator::new(&c, &all);
        assert!(!inc.stage_remove_at(0, JobId(1)));
        assert!(!inc.stage_remove_at(2, JobId(1)));
        assert!(inc.is_settled());
        assert_eq!((inc.num_jobs(), inc.stats().removes), (2, 0));
    }

    #[test]
    fn a_settle_over_local_jobs_only_counts_its_reuse_once() {
        let c = cluster(1, 3, 500.0);
        let net = job(0, &c, vec![(0, 1), (1, 1)], 2);
        let mut inc = IncrementalEstimator::new(&c, std::slice::from_ref(&net));
        for id in [8, 9] {
            inc.stage_push(PlacedJob::new(JobId(id), &c, &Placement::local(ServerId(0), 1)));
        }
        assert!(!inc.is_settled());
        assert_eq!(inc.state().job_rate_gbps(JobId(9)), Some(f64::INFINITY));
        inc.settle(&c);
        let stats = inc.stats();
        assert_eq!((stats.staged, stats.settles, stats.jobs_reused), (2, 1, 1));
        assert_eq!(stats.components_solved, 1, "only the solve at construction");
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
