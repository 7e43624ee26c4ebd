//! The INA-specific water-filling loop (Algorithm 1).
//!
//! Since the placement-time fast path landed, the estimator is organized
//! around **resource-connected components**: two jobs interact only if they
//! share a link, or share a ToR switch's PAT pool while both aggregate.
//! [`estimate`] partitions the jobs into components with a union-find over
//! resource nodes and water-fills each component independently — the
//! max-min allocation of a component depends only on its own jobs, so this
//! is exact, and it is what lets [`IncrementalEstimator`](crate::IncrementalEstimator)
//! re-solve only the component a new job lands in.
//!
//! Inside a component, [`solve_component`] runs Algorithm 1's rounds on the
//! entries that can differ from one another. A placement that packs whole
//! servers leaves most access links to one job with a flow count no PAT
//! pool changes ([`PlacedJob::new`] marks those entries *steady*); all such
//! links of one flow count hold the same bits round after round, so the
//! solver keeps one value per flow count — a *class* — and writes it into
//! a job's links when the job freezes. An access link one job has to
//! itself whose count a pool *can* change — an INA job's PS link, as a
//! rule — goes into a *refinable* class instead: one value per fill
//! history, which splits when a flip moves some of its links' counts and
//! not others. What is left — links two jobs share, uplinks — sits in one
//! flat list the augment walks; the water level is one number, and a
//! rack's PAT is drawn once per rack. `literal.rs` keeps the loop as
//! Algorithm 1 states it, and the tests hold the two to identical bits.

use crate::{SteadyState, WaterfillStats, EPSILON_GBPS};
use netpack_model::{JobHierarchy, Placement};
use netpack_topology::{Cluster, JobId, RackId};
use std::collections::BTreeMap;

/// One link of a job's cached flow run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunEntry {
    /// Flat link index ([`netpack_topology::LinkId::index`]).
    link: u32,
    /// Flow count under the virgin PAT view.
    flows: u32,
    /// The count is the same under *every* PAT view, the link is a server
    /// access link, and `0 < flows < CLASSES` — what a solve needs to know
    /// to fill the link through a class when this job has it to itself.
    steady: bool,
}

/// A job that has been placed into the cluster, as the estimator sees it.
///
/// Built from a [`Placement`] with [`PlacedJob::new`]; local placements
/// carry no hierarchy and are reported with infinite rate. A sharded
/// (multi-PS) placement contributes one aggregation tree per PS; the trees
/// fill in lock-step because every worker streams each gradient shard at
/// the same rate (§4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedJob {
    id: JobId,
    components: Vec<JobHierarchy>,
    shards: usize,
    /// The job's flow run: one entry for every link it crosses, each once,
    /// in tree-walk order, counted under the *virgin* PAT view (a pool
    /// aggregates iff its rack has any PAT at all). That view is a cluster
    /// constant and exactly the one every solve starts from — the pools an
    /// INA-enabled job can see are all inside its component, and a
    /// component is solved from virgin resources — so it is computed once
    /// here and read, never re-derived, at solve set-up.
    flows: Vec<RunEntry>,
    /// Rack of every switch on the job's trees, one entry per tree
    /// occurrence ([`JobHierarchy::switches`] order).
    switches: Vec<usize>,
    /// Whether the job draws on the PAT pools of its switches.
    ina_enabled: bool,
}

impl PlacedJob {
    /// Wrap a placement for estimation.
    pub fn new(id: JobId, cluster: &Cluster, placement: &Placement) -> Self {
        let components = JobHierarchy::components_from_placement(cluster, placement);
        let ina_enabled = components.iter().any(JobHierarchy::ina_enabled);
        let racks = cluster.racks();
        let mut run = Vec::new();
        write_flow_run(
            cluster,
            &components,
            |r| racks[r.0].pat_gbps() > EPSILON_GBPS,
            &mut run,
        );
        // A count is monotone in the set of aggregating pools (one more
        // pool aggregating never adds a flow), so a count that is equal
        // with every pool aggregating and with none is equal under every
        // view in between. A job without INA sees no pool at all.
        let (mut all, mut none) = (Vec::new(), Vec::new());
        if ina_enabled {
            write_flow_run(cluster, &components, |_| true, &mut all);
            write_flow_run(cluster, &components, |_| false, &mut none);
        }
        let n_servers = cluster.num_servers();
        let flows = run
            .iter()
            .enumerate()
            .map(|(i, &(link, flows))| {
                debug_assert!(flows > 0, "a placement lists no server without workers");
                RunEntry {
                    link: link as u32,
                    flows,
                    steady: link < n_servers
                        && (flows as usize) < CLASSES
                        && (!ina_enabled || (all[i] == (link, flows) && none[i] == (link, flows))),
                }
            })
            .collect();
        let switches = components
            .iter()
            .flat_map(|h| h.switches())
            .map(|r| r.0)
            .collect();
        PlacedJob {
            id,
            ina_enabled,
            components,
            shards: placement.shards(),
            flows,
            switches,
        }
    }

    /// This job's identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The (first) aggregation hierarchy, if the job generates traffic.
    pub fn hierarchy(&self) -> Option<&JobHierarchy> {
        self.components.first()
    }

    /// All aggregation trees (one per gradient shard with network traffic).
    pub fn components(&self) -> &[JobHierarchy] {
        &self.components
    }

    /// Number of gradient shards (PS count; at least 1).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Whether this job generates network traffic at all.
    pub fn is_network(&self) -> bool {
        !self.components.is_empty()
    }

    /// Every resource node this job can touch during filling, read off the
    /// cached run: its links (by [`netpack_topology::LinkId::index`]; the
    /// link *set* does not depend on the PAT view, only the counts do) and,
    /// when it participates in INA, the PAT pools of its switches (offset
    /// by `n_links`; a pool repeats once per tree that passes it). Nothing
    /// for local jobs.
    pub(crate) fn nodes(&self, n_links: usize) -> impl Iterator<Item = usize> + '_ {
        self.links()
            .chain(self.pools().iter().map(move |&r| n_links + r))
    }

    /// The links of [`nodes`](Self::nodes), in run order.
    pub(crate) fn links(&self) -> impl Iterator<Item = usize> + '_ {
        self.flows.iter().map(|e| e.link as usize)
    }

    /// The racks whose PAT pools this job draws on, one entry per tree
    /// occurrence: its switches when it participates in INA, else none.
    pub(crate) fn pools(&self) -> &[usize] {
        if self.ina_enabled {
            &self.switches
        } else {
            &[]
        }
    }

    /// One of [`nodes`](Self::nodes), enough to find the job's component;
    /// `None` for local jobs.
    pub(crate) fn anchor(&self) -> Option<usize> {
        self.flows.first().map(|e| e.link as usize)
    }
}

/// Write the flow run of a job's `trees` into `run`, replacing what it
/// held: `(link index, flow count)` while exactly the pools `agg` names
/// aggregate, each link once in first-seen order. Neither the link set nor
/// that order depends on `agg`, so runs of one job under different views
/// line up entry for entry.
fn write_flow_run(
    cluster: &Cluster,
    trees: &[JobHierarchy],
    agg: impl Fn(RackId) -> bool,
    run: &mut Vec<(usize, u32)>,
) {
    run.clear();
    // One tree reports each link once; only sharded jobs can repeat a link
    // across trees and need the merge.
    let merge = trees.len() > 1;
    for h in trees {
        h.for_each_link_flow(&agg, |l, f| {
            let idx = l.index(cluster);
            if merge {
                if let Some(e) = run.iter_mut().find(|(i, _)| *i == idx) {
                    e.1 += f;
                    return;
                }
            }
            run.push((idx, f));
        });
    }
}

/// Minimal union-find over resource-node indices. Parents are `u32`: a
/// cluster has one node per link and per rack, far below `u32::MAX`.
#[derive(Debug, Clone)]
pub(crate) struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    pub(crate) fn new(nodes: usize) -> Self {
        Dsu {
            parent: (0..nodes as u32).collect(),
        }
    }

    pub(crate) fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Make `x` a singleton again. Sound only when every node of `x`'s
    /// component is isolated in the same sweep: a node left pointing at `x`
    /// would otherwise be cut off from its old root.
    pub(crate) fn isolate(&mut self, x: usize) {
        self.parent[x] = x as u32;
    }

    /// Join `nodes` into one component; returns the first of them.
    pub(crate) fn union_all(&mut self, mut nodes: impl Iterator<Item = usize>) -> Option<usize> {
        let first = nodes.next()?;
        for node in nodes {
            self.union(first, node);
        }
        Some(first)
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: the smaller root wins, so component identity
            // does not depend on union order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo as u32;
        }
    }
}

/// Virgin capacity of the link with flat index `idx` (server access links
/// first, then one uplink per rack — the same layout as `SteadyState`).
pub(crate) fn link_capacity(cluster: &Cluster, idx: usize) -> f64 {
    let n_servers = cluster.num_servers();
    if idx < n_servers {
        cluster.spec().server_link_gbps
    } else {
        cluster.racks()[idx - n_servers].uplink_gbps()
    }
}

/// A virgin steady state: full residuals, no flows, and rates recorded for
/// every job (`∞` for local jobs, `0.0` placeholder for network jobs that
/// [`solve_component`] will overwrite).
pub(crate) fn empty_state(cluster: &Cluster, jobs: &[PlacedJob]) -> SteadyState {
    let n_servers = cluster.num_servers();
    let n_links = cluster.num_links();
    let mut bw: Vec<f64> = Vec::with_capacity(n_links);
    bw.resize(n_servers, cluster.spec().server_link_gbps);
    for rack in cluster.racks() {
        bw.push(rack.uplink_gbps());
    }
    let mut job_rates = BTreeMap::new();
    let mut job_shards = BTreeMap::new();
    for job in jobs {
        job_shards.insert(job.id, job.shards());
        if !job.is_network() {
            job_rates.insert(job.id, f64::INFINITY);
        }
    }
    SteadyState {
        job_rates,
        job_shards,
        link_residual: bw,
        link_flows: vec![0; n_links],
        pat_residual: cluster.racks().iter().map(|r| r.pat_gbps()).collect(),
        num_servers: n_servers,
    }
}

/// Flow counts a steady lone-link class can stand for: such a class is
/// keyed by its flow count and a member's classes are one bit each of a
/// `u64`. A lone link past it fills through a refinable class.
const CLASSES: usize = 64;

/// An *ordinary* entry of a member's run — one a round must visit on its own
/// link.
#[derive(Debug, Clone, Copy)]
struct ActiveEntry {
    link: u32,
    /// Flow count under the PAT view of the current round; 0 once its
    /// owner froze (a live count never is: every link a run names carries
    /// at least one stream under any view).
    flows: u32,
    /// Its owner's position in `members`.
    member: u32,
}

/// A refinable entry: one on a server access link no other entry of the
/// component names, with a count some PAT view moves (or past the steady
/// table's 64). It fills through its class in `SolveScratch::classes`.
#[derive(Debug, Clone, Copy)]
struct ClassLink {
    link: u32,
    /// Its class now; a flip that moves its count moves it on.
    class: u32,
    /// Its owner's position in `members`.
    member: u32,
}

/// Where a member's entry that a flip can move lives in the solve scratch.
#[derive(Debug, Clone, Copy)]
enum Home {
    /// A refinable entry: its `class_links` slot.
    Class(u32),
    /// An ordinary entry: its offset in its owner's stretch of `active`.
    Active(u32),
}

/// The links of one fill history: they started at the server link
/// capacity and have had the same `δ·f` subtracted every round, so they
/// hold the same bits, and `residual` is each of them.
#[derive(Debug, Clone, Default)]
struct RefinableClass {
    residual: f64,
    /// The count each link has under the current PAT view.
    flows: u32,
    /// Links of the class whose owner is unfrozen.
    live: u32,
    /// Every `class_links` slot ever filed here, in filing order; a slot
    /// that a flip has since moved on names another class.
    owners: Vec<u32>,
}

/// The refinable classes of a solve, in records reused solve after solve.
#[derive(Debug, Clone, Default)]
struct ClassArena {
    /// `records[..len]` are this solve's classes, the records past them
    /// spares.
    records: Vec<RefinableClass>,
    len: usize,
    /// This solve's classes with a live link, in no particular order.
    live: Vec<u32>,
    /// Whether a class lost its last live link since `live` was last
    /// filtered.
    died: bool,
}

impl ClassArena {
    fn clear(&mut self) {
        self.len = 0;
        self.live.clear();
        self.died = false;
    }

    /// Open a live class at `residual` with `flows` per link and no links
    /// yet; returns its index.
    fn open(&mut self, residual: f64, flows: u32) -> usize {
        let c = self.len;
        if c == self.records.len() {
            self.records.push(RefinableClass::default());
        }
        let k = &mut self.records[c];
        (k.residual, k.flows, k.live) = (residual, flows, 0);
        k.owners.clear();
        self.len += 1;
        self.live.push(c as u32);
        c
    }

    /// File `class_links` slot `slot` under class `c`.
    fn file(&mut self, c: usize, slot: usize) {
        let k = &mut self.records[c];
        k.live += 1;
        k.owners.push(slot as u32);
    }

    /// Take a link out of class `c`'s live count; a class left with none
    /// is filtered out of `live` by the next [`drop_dead`](Self::drop_dead).
    fn leave(&mut self, c: usize) {
        let k = &mut self.records[c];
        k.live -= 1;
        self.died |= k.live == 0;
    }

    /// Filter the classes that lost their last live link out of `live`.
    fn drop_dead(&mut self) {
        if self.died {
            let records = &self.records;
            self.live.retain(|&c| records[c as usize].live > 0);
            self.died = false;
        }
    }
}

/// `1 + 2⁻⁵⁰`: the margin [`share_cannot_undercut`] puts on a rounded
/// product.
const SHARE_MARGIN: f64 = 1.0 + 4.0 * f64::EPSILON;

/// Whether a link of residual `b` (≥ 0) and `t` (> 0) flows can be left out
/// of a share minimum that stands at `delta` — `delta.min(b / t)` would
/// keep `delta`'s bits — decided without the division.
///
/// With `θ = fl(fl(δ·t)·(1 + 2⁻⁵⁰))` a normal float, each rounding is off
/// by a factor within `1 ± 2⁻⁵³` (a product just under the normal range
/// rounds no worse), so `θ ≥ δ·t·(1 − 2⁻⁵³)²·(1 + 2⁻⁵⁰) > δ·t`. Then
/// `b > θ` means `b / t > δ` exactly, rounding is monotone and `δ` is a
/// float, so `fl(b / t) ≥ δ`. An infinite `δ` (the first link), a zero one
/// and products that overflow or fall below the normal range all give a
/// `θ` that is not normal, and take the division.
fn share_cannot_undercut(delta: f64, b: f64, t: f64) -> bool {
    let threshold = delta * t * SHARE_MARGIN;
    threshold.is_normal() && b > threshold
}

/// Reusable arenas of [`solve_component`]. `degree`, `link_total` and
/// `rack_jobs` are cluster-sized and indexed by link / rack id; everything
/// else is sized by the component. A solve resets what it reads, with one
/// exception it restores itself: the two counters it finds its links and
/// racks by, `degree` and `rack_jobs`, are zero between solves.
#[derive(Debug, Clone)]
pub(crate) struct SolveScratch {
    /// Entries of the members' runs per link of the component being
    /// solved.
    degree: Vec<u32>,
    /// Flows of unfrozen members' ordinary entries per link: at most the
    /// link's flow count, a `u32`.
    link_total: Vec<u32>,
    /// INA-enabled unfrozen members per rack (one per switch occurrence),
    /// whatever the rack's PAT; only read for racks with PAT left.
    rack_jobs: Vec<u32>,
    /// Every link of the component, in the order the member runs name
    /// them first.
    links: Vec<usize>,
    /// The links an ordinary entry of an unfrozen member still crosses.
    live_links: Vec<usize>,
    /// Racks an INA-enabled member aggregates at; from the first round on,
    /// those of them whose PAT is not yet exhausted.
    live_racks: Vec<usize>,
    /// Racks whose pool ran dry in the round before this one.
    flipped: Vec<usize>,
    /// Members (positions in `members`), in member order, that were
    /// unfrozen when `active` was last compacted: a superset of the
    /// unfrozen ones, which are those whose `rate` is still NaN.
    unfrozen: Vec<usize>,
    /// How many members are unfrozen.
    live_members: usize,
    /// The ordinary entries of the members, member order, each member's in
    /// run order: what the augment subtracts from one by one. A frozen
    /// member's entries stay, with flow count 0, until they are an eighth
    /// of the list and one pass drops them all.
    active: Vec<ActiveEntry>,
    /// Entries of `active` whose owner is frozen.
    stale: usize,
    /// Per member: where its entries begin in `active` (ascending in
    /// member order; kept current for unfrozen members only).
    start: Vec<u32>,
    /// Per member: how many entries of `active` it owns.
    ordinary_len: Vec<u32>,
    /// Members a freeze found saturated, before it retires them.
    hits: Vec<usize>,
    /// `(link, flow count)` of every lone entry — a steady entry whose
    /// link no other entry of the component names — back to back; member
    /// `m` owns
    /// `lone[lone_start[m]..lone_start[m + 1]]`.
    lone: Vec<(u32, u32)>,
    lone_start: Vec<usize>,
    /// Per member: bit `f` set iff it owns a lone entry of `f` flows.
    class_mask: Vec<u64>,
    /// Residual of every lone link of `f` flows whose owner is unfrozen.
    class_bw: [f64; CLASSES],
    /// Lone entries of `f` flows whose owner is unfrozen.
    class_count: [u32; CLASSES],
    /// Bit `f` set iff `class_count[f] > 0`.
    live_classes: u64,
    /// The refinable entries, back to back; member `m` owns
    /// `class_links[class_start[m]..class_start[m + 1]]`, in run order.
    class_links: Vec<ClassLink>,
    class_start: Vec<usize>,
    /// The refinable classes.
    classes: ClassArena,
    /// Refinable classes the round's subtraction left at or under the
    /// threshold.
    pinned_refinable: Vec<u32>,
    /// `(class, new count, new class)` of each split of the flip being
    /// rewritten.
    splits: Vec<(u32, u32, u32)>,
    /// `(run position, home)` of every entry a flip can move — every one
    /// not steady — back to back; member `m` owns
    /// `moves[moves_start[m]..moves_start[m + 1]]`, in run order.
    moves: Vec<(u32, Home)>,
    moves_start: Vec<usize>,
    /// Per member: the level it froze at.
    rate: Vec<f64>,
    /// A flipped member's run under the new view.
    run: Vec<(usize, u32)>,
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

impl SolveScratch {
    pub(crate) fn new(cluster: &Cluster) -> Self {
        SolveScratch {
            degree: vec![0; cluster.num_links()],
            link_total: vec![0; cluster.num_links()],
            rack_jobs: vec![0; cluster.num_racks()],
            links: Vec::new(),
            live_links: Vec::new(),
            live_racks: Vec::new(),
            flipped: Vec::new(),
            unfrozen: Vec::new(),
            live_members: 0,
            active: Vec::new(),
            stale: 0,
            start: Vec::new(),
            ordinary_len: Vec::new(),
            hits: Vec::new(),
            lone: Vec::new(),
            lone_start: Vec::new(),
            class_mask: Vec::new(),
            class_bw: [0.0; CLASSES],
            class_count: [0; CLASSES],
            live_classes: 0,
            class_links: Vec::new(),
            class_start: Vec::new(),
            classes: ClassArena::default(),
            pinned_refinable: Vec::new(),
            splits: Vec::new(),
            moves: Vec::new(),
            moves_start: Vec::new(),
            rate: Vec::new(),
            run: Vec::new(),
        }
    }

    /// Every link of the component last solved — the links that solve
    /// reset and rewrote — each once, in no particular order.
    pub(crate) fn links(&self) -> &[usize] {
        &self.links
    }

    /// UpdateFlows after a PAT flip: recount, under the view `pat` now
    /// gives, the unfrozen INA-enabled members with a switch at a rack in
    /// `flipped` — no other member's counts can have moved — and shift
    /// each link total by the difference. Only the entries in `moves` are
    /// read: a steady one keeps its count, so the steady classes stand,
    /// and an ordinary steady entry's total does too. A refinable link whose
    /// count moved from its class `c`'s to `f` joins the class `(c, f)`
    /// of this flip, opened at `c`'s residual as it stands: the links that
    /// make the same move here held `c`'s bits and take the same `δ·f`
    /// from now on, so they stay one class.
    fn rewrite_flipped(
        &mut self,
        cluster: &Cluster,
        jobs: &[PlacedJob],
        members: &[usize],
        pat: &[f64],
        stats: &mut WaterfillStats,
    ) {
        self.splits.clear();
        for &m in &self.unfrozen {
            let job = &jobs[members[m]];
            let at_flipped =
                || job.ina_enabled && job.switches.iter().any(|r| self.flipped.contains(r));
            if !self.rate[m].is_nan() || !at_flipped() {
                continue;
            }
            write_flow_run(
                cluster,
                &job.components,
                |r| pat[r.0] > EPSILON_GBPS,
                &mut self.run,
            );
            debug_assert!(
                job.flows.iter().zip(&self.run).all(|(e, &(l, f))| {
                    e.link as usize == l && f > 0 && (!e.steady || e.flows == f)
                }),
                "a steady count moved under a PAT view, or a count fell to 0"
            );
            // Only the entries that are not steady can have moved.
            for &(at, home) in &self.moves[self.moves_start[m]..self.moves_start[m + 1]] {
                let (link, flows) = self.run[at as usize];
                match home {
                    Home::Class(slot) => {
                        let slot = slot as usize;
                        let owned = self.class_links[slot].link as usize;
                        debug_assert_eq!(owned, link, "a slot left its owner's run");
                        let from = self.class_links[slot].class;
                        if self.classes.records[from as usize].flows == flows {
                            continue;
                        }
                        let split = self
                            .splits
                            .iter()
                            .find(|&&(c, f, _)| (c, f) == (from, flows));
                        let to = match split {
                            Some(&(_, _, to)) => to as usize,
                            None => {
                                let residual = self.classes.records[from as usize].residual;
                                let to = self.classes.open(residual, flows);
                                self.splits.push((from, flows, to as u32));
                                stats.class_splits += 1;
                                to
                            }
                        };
                        self.classes.leave(from as usize);
                        self.classes.file(to, slot);
                        self.class_links[slot].class = to as u32;
                    }
                    Home::Active(k) => {
                        let e = &mut self.active[(self.start[m] + k) as usize];
                        debug_assert_eq!(e.link as usize, link, "an entry left its owner's run");
                        let total = &mut self.link_total[link];
                        *total = *total - e.flows + flows;
                        e.flows = flows;
                    }
                }
            }
        }
        self.flipped.clear();
        self.classes.drop_dead();
    }

    /// Freeze member `m` at rate `level`: its lone and refinable links take
    /// their class's residual — the value each of them would hold had the
    /// rounds so far subtracted from it one by one — and it leaves the
    /// class and rack counts. Its entries are the caller's.
    fn retire(
        &mut self,
        jobs: &[PlacedJob],
        members: &[usize],
        bw: &mut [f64],
        m: usize,
        level: f64,
    ) {
        debug_assert!(self.rate[m].is_nan(), "a member froze twice");
        self.rate[m] = level;
        for &(l, f) in &self.lone[self.lone_start[m]..self.lone_start[m + 1]] {
            bw[l as usize] = self.class_bw[f as usize];
            self.class_count[f as usize] -= 1;
            if self.class_count[f as usize] == 0 {
                self.live_classes &= !(1 << f);
            }
        }
        for cl in &self.class_links[self.class_start[m]..self.class_start[m + 1]] {
            bw[cl.link as usize] = self.classes.records[cl.class as usize].residual;
            self.classes.leave(cl.class as usize);
        }
        let job = &jobs[members[m]];
        if job.ina_enabled {
            for &r in &job.switches {
                self.rack_jobs[r] -= 1;
            }
        }
    }

    /// The last member froze. Nothing reads the totals of a finished
    /// solve: the next one resets each link's when it first names it.
    fn finish(&mut self) {
        self.live_members = 0;
        self.unfrozen.clear();
        self.active.clear();
        self.live_links.clear();
        self.classes.drop_dead();
        self.stale = 0;
    }

    /// Freeze every unfrozen member at rate `level`.
    fn freeze_all(&mut self, jobs: &[PlacedJob], members: &[usize], bw: &mut [f64], level: f64) {
        for u in 0..self.unfrozen.len() {
            let m = self.unfrozen[u];
            if self.rate[m].is_nan() {
                self.retire(jobs, members, bw, m, level);
            }
        }
        self.finish();
    }

    /// Freeze, at rate `level`, every unfrozen member that crosses a
    /// saturated link — an ordinary one at or under the threshold in `bw`
    /// (only if `saturated`: the round left one there), a lone one of a
    /// steady class in `pinned`, or a refinable one of a class in
    /// `pinned_refinable`. Returns whether it scanned the entries.
    ///
    /// The pinned classes' owners come first — the steady ones through
    /// the class masks, the refinable ones through their owner lists — and
    /// when they are everyone, as in a packed component's one round as a
    /// rule, no entry is read. Otherwise, and only when an ordinary link
    /// saturated, one pass over the entries finds the rest by the live
    /// entries on a saturated link, each naming its owner: an ordinary
    /// link at or under the threshold with a live entry on it went under
    /// this round, since its crossers froze in the round it did. A frozen
    /// member's entries leave the running totals and keep their place with
    /// flow count 0, which the augment subtracts as `δ·0 = +0` and so
    /// leaves every bit alone; once they are an eighth of the list one pass
    /// drops them, and the frozen members from `unfrozen` with them.
    /// `live_links` is filtered only if a total reached zero.
    fn freeze(
        &mut self,
        jobs: &[PlacedJob],
        members: &[usize],
        bw: &mut [f64],
        level: f64,
        pinned: u64,
        saturated: bool,
    ) -> bool {
        self.hits.clear();
        if pinned != 0 {
            for u in 0..self.unfrozen.len() {
                let m = self.unfrozen[u];
                if self.class_mask[m] & pinned != 0 && self.rate[m].is_nan() {
                    self.retire(jobs, members, bw, m, level);
                    self.hits.push(m);
                }
            }
        }
        for p in 0..self.pinned_refinable.len() {
            let c = self.pinned_refinable[p];
            for o in 0..self.classes.records[c as usize].owners.len() {
                let cl = self.class_links[self.classes.records[c as usize].owners[o] as usize];
                let m = cl.member as usize;
                if cl.class == c && self.rate[m].is_nan() {
                    self.retire(jobs, members, bw, m, level);
                    self.hits.push(m);
                }
            }
        }
        // A retired member writes its lone and refinable links, which no
        // entry names.
        let scan = saturated && self.hits.len() < self.live_members;
        if scan {
            for i in 0..self.active.len() {
                let e = self.active[i];
                let m = e.member as usize;
                if (e.flows != 0) & (bw[e.link as usize] <= EPSILON_GBPS) && self.rate[m].is_nan() {
                    self.retire(jobs, members, bw, m, level);
                    self.hits.push(m);
                }
            }
        }
        if self.hits.len() == self.live_members {
            self.finish();
            return scan;
        }
        self.classes.drop_dead();
        self.live_members -= self.hits.len();
        let mut emptied = false;
        for &m in &self.hits {
            let from = self.start[m] as usize;
            for e in &mut self.active[from..from + self.ordinary_len[m] as usize] {
                let total = &mut self.link_total[e.link as usize];
                *total -= e.flows;
                emptied |= *total == 0;
                e.flows = 0;
            }
            self.stale += self.ordinary_len[m] as usize;
        }
        debug_assert_eq!(
            (self.live_members, self.stale),
            (
                self.rate.iter().filter(|r| r.is_nan()).count(),
                self.active.iter().filter(|e| e.flows == 0).count()
            ),
            "the unfrozen members or the stale entries were miscounted"
        );
        if emptied {
            let link_total = &self.link_total;
            self.live_links.retain(|&l| link_total[l] > 0);
        }
        if 8 * self.stale > self.active.len() {
            self.active.retain(|e| e.flows != 0);
            let rate = &self.rate;
            self.unfrozen.retain(|&m| rate[m].is_nan());
            let mut at = 0;
            for &m in &self.unfrozen {
                self.start[m] = at;
                at += self.ordinary_len[m];
            }
            debug_assert_eq!(at as usize, self.active.len(), "a live entry had no owner");
            self.stale = 0;
        }
        scan
    }
}

/// Water-fill one resource-connected component in place.
///
/// `members` must index exactly the network jobs of one component within
/// `jobs`, in their global insertion order. The solve first returns the
/// component's own resources in `state` — every link a member crosses,
/// every PAT pool an INA-enabled member draws on — to virgin capacity with
/// zero flow counts, then fills them; the links it wrote are
/// [`SolveScratch::links`] afterwards. Everything outside the component is
/// left untouched, which is the invariant the incremental estimator builds
/// on.
///
/// A round costs the entries that can differ from one another
/// (`DESIGN.md` §3.2 has the argument that every bit equals
/// `literal::solve_component`'s, the test oracle):
///
/// * **Set-up** reads each member's cached flow run ([`PlacedJob::new`]
///   derived it under the view a solve starts from) twice and sorts
///   nothing: one pass counts the entries on each link and lists a link
///   the first time it is named, one pass sorts the entries into *lone*
///   ones — steady, and alone on their link — *refinable* ones — alone on
///   a server access link, but not steady — and *ordinary* ones.
/// * **Lone links collapse to classes.** Every lone link of `f` flows
///   starts at the server link capacity and, while its owner is unfrozen,
///   has `δ·f` subtracted each round: identical operations on identical
///   values, so one `class_bw[f]` holds them all, offers one share to the
///   minimum, and is copied into a member's lone links when it freezes.
///   A refinable link starts there too, so set-up files it under its
///   virgin count in a [`RefinableClass`], which takes one share and one
///   `δ·flows` a round for all its links and freezes the owners on its
///   list when it pins. The round after a flip moves a link whose count
///   changed from its class `c` to the class `(c, new count)` opened at
///   that flip from `c`'s residual as it stands: links that started
///   equal and took the same `−δ·f` sequence hold the same bits, which is
///   what the literal loop gives each of them alone. The steady table
///   stays beside these classes: its bitmask finds a pinned class's
///   owners for less than an owner list on the one-round components it
///   serves (`DESIGN.md` §3.14).
/// * **One level.** Every unfrozen member has added the same `δ`s to
///   `0.0`; one `level` does, and a freeze stores it.
/// * **One draw per rack.** A rack's PAT takes one guarded `-= δ` per
///   unfrozen INA member at it, the same whichever member makes it, so
///   the draws of a round run per rack, not per member.
/// * **A share minimum without the divisions it cannot use.** A live link
///   whose residual is above `δ·t` with a margin no rounding can cross
///   ([`share_cannot_undercut`]) leaves the running minimum as it is, so
///   it skips its division; links are still visited in order, and the
///   first link (`δ = ∞`) always divides.
/// * **A flat active list** of the ordinary entries, each naming its
///   owner, is what the augment subtracts from, noting a live entry it
///   leaves at or under the threshold. Only a round that saturated
///   something freezes: first the pinned classes' owners, which in a
///   packed component's one round are often everyone, then — only when
///   an ordinary link saturated — one straight pass over the entries. A
///   frozen member's entries stay in place with flow count 0 — `δ·0`
///   subtracts nothing — until they are an eighth of the list and one pass
///   drops them; `live_links` is filtered only when a total reached zero.
///   A PAT flip rewrites the members at the flipped rack, and of each
///   only the entries that are not steady, and nothing else.
///
/// Returns the component's *one-round level* — `Some(δ)` when the solve
/// froze every member in its first round at level `δ > 0` with no PAT pool
/// running dry — and `None` otherwise: what [`absorb_push`] builds on.
pub(crate) fn solve_component(
    cluster: &Cluster,
    jobs: &[PlacedJob],
    members: &[usize],
    state: &mut SteadyState,
    scratch: &mut SolveScratch,
    stats: &mut WaterfillStats,
) -> Option<f64> {
    if members.is_empty() {
        return None;
    }
    stats.components_solved += 1;
    stats.jobs_resolved += members.len() as u64;
    let bw = &mut state.link_residual;
    let pat = &mut state.pat_residual;
    let link_flows = &mut state.link_flows;
    let s = scratch;
    debug_assert!(
        s.links.iter().all(|&l| s.degree[l] == 0),
        "a solve left a link degree behind"
    );

    // Degree pass: the component's links, each reset when first named.
    s.links.clear();
    for &ji in members {
        for e in &jobs[ji].flows {
            let l = e.link as usize;
            if s.degree[l] == 0 {
                s.links.push(l);
                bw[l] = link_capacity(cluster, l);
                link_flows[l] = 0;
                s.link_total[l] = 0;
            }
            s.degree[l] += 1;
        }
    }
    // Classify pass: lone, refinable and ordinary entries, the totals and
    // classes they feed, the racks, and the flow counts a solve without a
    // PAT flip converges to (the virgin view's). Every refinable link starts
    // at the server link capacity, so set-up files it under its virgin
    // count.
    s.live_links.clear();
    s.live_racks.clear();
    s.active.clear();
    s.stale = 0;
    s.start.clear();
    s.ordinary_len.clear();
    s.lone.clear();
    s.lone_start.clear();
    s.class_mask.clear();
    s.class_count = [0; CLASSES];
    s.live_classes = 0;
    s.class_links.clear();
    s.class_start.clear();
    s.classes.clear();
    s.moves.clear();
    s.moves_start.clear();
    let (n_servers, server_gbps) = (cluster.num_servers(), cluster.spec().server_link_gbps);
    for (m, &ji) in members.iter().enumerate() {
        let job = &jobs[ji];
        let (first, mut mask) = (s.active.len(), 0u64);
        s.start.push(first as u32);
        s.lone_start.push(s.lone.len());
        s.class_start.push(s.class_links.len());
        s.moves_start.push(s.moves.len());
        for (at, e) in job.flows.iter().enumerate() {
            let l = e.link as usize;
            link_flows[l] += e.flows;
            if e.steady && s.degree[l] == 1 {
                s.lone.push((e.link, e.flows));
                s.class_count[e.flows as usize] += 1;
                mask |= 1 << e.flows;
            } else if l < n_servers && s.degree[l] == 1 {
                let opened = s.classes.records[..s.classes.len]
                    .iter()
                    .position(|k| k.flows == e.flows);
                let c = opened.unwrap_or_else(|| s.classes.open(server_gbps, e.flows));
                s.moves
                    .push((at as u32, Home::Class(s.class_links.len() as u32)));
                s.classes.file(c, s.class_links.len());
                s.class_links.push(ClassLink {
                    link: e.link,
                    class: c as u32,
                    member: m as u32,
                });
            } else {
                if s.link_total[l] == 0 {
                    s.live_links.push(l);
                }
                s.link_total[l] += e.flows;
                if !e.steady {
                    s.moves
                        .push((at as u32, Home::Active((s.active.len() - first) as u32)));
                }
                s.active.push(ActiveEntry {
                    link: e.link,
                    flows: e.flows,
                    member: m as u32,
                });
            }
        }
        s.class_mask.push(mask);
        s.live_classes |= mask;
        s.ordinary_len.push((s.active.len() - first) as u32);
        if job.ina_enabled {
            for &r in &job.switches {
                if s.rack_jobs[r] == 0 {
                    s.live_racks.push(r);
                    pat[r] = cluster.racks()[r].pat_gbps();
                }
                s.rack_jobs[r] += 1;
            }
        }
    }
    s.lone_start.push(s.lone.len());
    s.class_start.push(s.class_links.len());
    s.moves_start.push(s.moves.len());
    stats.lone_entries += (s.lone.len() + s.class_links.len()) as u64;
    for f in bits(s.live_classes) {
        s.class_bw[f] = server_gbps;
    }
    // Round bound with headroom; the loop always exits earlier because
    // every round saturates a link or exhausts a PAT pool.
    let max_rounds = 2 * (s.links.len() + s.live_racks.len()) + 8;
    s.live_racks.retain(|&r| pat[r] > EPSILON_GBPS);
    s.flipped.clear();
    s.unfrozen.clear();
    s.unfrozen.extend(0..members.len());
    s.live_members = members.len();
    // NaN until the member freezes, which it does once.
    s.rate.clear();
    s.rate.resize(members.len(), f64::NAN);

    // The rate of every unfrozen member: each has added every `δ` so far.
    let mut level = 0.0_f64;
    // Whether any pool ran dry during this solve: until one does, the
    // virgin view's flow counts are the converged ones.
    let mut any_flip = false;
    let mut rounds = 0;
    for _ in 0..max_rounds {
        if s.live_members == 0 {
            break;
        }
        rounds += 1;
        stats.rounds += 1;
        if !s.flipped.is_empty() {
            s.rewrite_flipped(cluster, jobs, members, pat, stats);
        }

        // Minimum per-flow share across loaded links, classes and switches.
        // A link that cannot undercut the minimum so far skips its division.
        let mut delta = f64::INFINITY;
        for &l in &s.live_links {
            let (b, t) = (bw[l].max(0.0), f64::from(s.link_total[l]));
            if share_cannot_undercut(delta, b, t) {
                debug_assert_eq!(
                    delta.min(b / t).to_bits(),
                    delta.to_bits(),
                    "a skipped share undercut"
                );
                continue;
            }
            delta = delta.min(b / t);
        }
        for f in bits(s.live_classes) {
            delta = delta.min(s.class_bw[f].max(0.0) / f as f64);
        }
        for &c in &s.classes.live {
            let k = &s.classes.records[c as usize];
            delta = delta.min(k.residual.max(0.0) / f64::from(k.flows));
        }
        for &r in &s.live_racks {
            if s.rack_jobs[r] > 0 {
                delta = delta.min(pat[r].max(0.0) / f64::from(s.rack_jobs[r]));
            }
        }
        if !delta.is_finite() {
            // No unfrozen job touches any link: freeze them all at their
            // current rate (degenerate but defensively handled).
            s.freeze_all(jobs, members, bw, level);
            break;
        }
        let live_entries = (s.active.len() - s.stale) as u64;
        let live_classes = u64::from(s.live_classes.count_ones()) + s.classes.live.len() as u64;
        stats.link_visits += s.live_links.len() as u64 + live_entries + live_classes;

        // Augment: raise every unfrozen job by delta, drain links and PAT.
        // A frozen member's entry subtracts `δ·0 = +0` and saturates
        // nothing.
        level += delta;
        let mut saturated = false;
        for e in &s.active {
            let cell = &mut bw[e.link as usize];
            *cell -= delta * f64::from(e.flows);
            saturated |= (e.flows != 0) & (*cell <= EPSILON_GBPS);
        }
        // A class at or under the threshold is every one of its links
        // saturating at once.
        let mut pinned = 0u64;
        for f in bits(s.live_classes) {
            s.class_bw[f] -= delta * f as f64;
            if s.class_bw[f] <= EPSILON_GBPS {
                pinned |= 1 << f;
            }
        }
        s.pinned_refinable.clear();
        for &c in &s.classes.live {
            let k = &mut s.classes.records[c as usize];
            k.residual -= delta * f64::from(k.flows);
            if k.residual <= EPSILON_GBPS {
                s.pinned_refinable.push(c);
            }
        }
        // The round's PAT draws, rack by rack: one guarded `-= δ` per
        // unfrozen INA member there. A pool left at or under the threshold
        // is pinned, and flips its members' counts next round.
        let SolveScratch {
            live_racks,
            rack_jobs,
            flipped,
            ..
        } = &mut *s;
        live_racks.retain(|&r| {
            let mut left = drawn(pat[r], rack_jobs[r] as usize, delta);
            let dry = left <= EPSILON_GBPS;
            if dry {
                left = 0.0;
                flipped.push(r);
            }
            pat[r] = left;
            !dry
        });
        any_flip |= !s.flipped.is_empty();
        // Freeze jobs crossing a saturated link and take their flows out
        // of the running totals.
        if (saturated || pinned != 0 || !s.pinned_refinable.is_empty())
            && s.freeze(jobs, members, bw, level, pinned, saturated)
        {
            stats.link_visits += live_entries;
        }
    }
    let converged = s.live_members == 0;
    if !converged {
        stats.unconverged += 1;
        s.freeze_all(jobs, members, bw, level);
    }
    debug_assert!(
        s.active.is_empty() && s.live_links.is_empty(),
        "an entry outlived its owner"
    );
    debug_assert!(
        s.live_classes == 0 && s.class_count == [0; CLASSES],
        "a class outlived its members"
    );
    debug_assert!(
        s.classes.live.is_empty()
            && s.classes.records[..s.classes.len]
                .iter()
                .all(|k| k.live == 0),
        "a refinable class outlived its members"
    );
    debug_assert!(s.rate.iter().all(|r| !r.is_nan()), "a member never froze");
    debug_assert!(
        members
            .iter()
            .flat_map(|&ji| &jobs[ji].switches)
            .all(|&r| s.rack_jobs[r] == 0),
        "a rack count outlived its members"
    );

    // Converged flow counts including frozen jobs, under the final PAT view
    // (a job's own switches are all inside its component, so the component
    // view and the global view agree). With no flip that view is the one
    // the runs were cached under and set-up already summed them; a frozen
    // job's run is stale after one, so walk the trees again.
    if any_flip {
        for &l in &s.links {
            link_flows[l] = 0;
        }
        let agg = |r: RackId| pat[r.0] > EPSILON_GBPS;
        for &ji in members {
            for h in jobs[ji].components() {
                h.for_each_link_flow(agg, |l, f| link_flows[l.index(cluster)] += f);
            }
        }
    }
    for (m, &ji) in members.iter().enumerate() {
        state.job_rates.insert(jobs[ji].id, s.rate[m]);
    }
    // Residual clamping, and the degree counts back to zero.
    for &l in &s.links {
        bw[l] = bw[l].max(0.0);
        s.degree[l] = 0;
    }
    (rounds == 1 && !any_flip && converged && level > 0.0).then_some(level)
}

/// A pool of residual `left` after `draws` guarded draws of `delta`: each
/// takes `delta` while the pool is still above the threshold.
fn drawn(mut left: f64, draws: usize, delta: f64) -> f64 {
    for _ in 0..draws {
        if left > EPSILON_GBPS {
            left -= delta;
        }
    }
    left
}

/// Absorb a push without re-solving its component: the second way a settle
/// can bring a component up to date, beside [`solve_component`].
///
/// `members` are the network jobs of the component in insertion order; the
/// last, `J`, is the one pushed since `state` was settled, and the others
/// are one or more components `state` holds solved. `levels[i]` is job
/// `i`'s one-round level (NaN when its component had none) and
/// `pool_jobs[r]` the INA switch occurrences at rack `r` over every job,
/// `J`'s included. With `δ` the older members' level, the literal loop's
/// round 1 over the merged component is their round 1 with `J`'s arithmetic
/// added last, and it ends the solve, when:
///
/// * every older member carries the one-round level `δ` — every component
///   `J` merges froze everyone in one round at `δ`, with no pool running
///   dry;
/// * no share `J` changes falls under `δ`: `cap / (flows + f_J)` on each of
///   its links, `PAT / occurrences` at each live pool it draws on. The
///   other shares are the old ones, so round 1's minimum is `δ`, bit for
///   bit;
/// * `J`, subtracting last on each of its links, leaves one at or under
///   the threshold, so it freezes in round 1 too. An older member froze on
///   a link that was saturated without `J` and is no fuller with it;
/// * `J`'s guarded draws, continuing from the stored pools, leave every
///   live pool above the threshold: no flip, so the counts stay the
///   virgin view's and no round follows.
///
/// Then `J`'s links continue from the stored residuals as `b − δ·f_J` (a
/// stored 0 was clamped from at most 0, and either way the result clamps
/// to 0), their counts add `f_J`, `J`'s pools take its draws and `J` the
/// rate `δ`; every older member's subtraction sequence, and so every other
/// number, is unchanged. Returns `δ` when it absorbed the push; when a
/// check refuses it returns `None` and has written nothing.
pub(crate) fn absorb_push(
    cluster: &Cluster,
    jobs: &[PlacedJob],
    members: &[usize],
    levels: &[f64],
    pool_jobs: &[u32],
    state: &mut SteadyState,
) -> Option<f64> {
    let (&j, older) = members.split_last()?;
    let delta = levels[*older.first()?];
    if delta.is_nan()
        || older
            .iter()
            .any(|&i| levels[i].to_bits() != delta.to_bits())
    {
        return None;
    }
    let job = &jobs[j];
    let mut saturates = false;
    for e in &job.flows {
        let l = e.link as usize;
        let share = link_capacity(cluster, l) / f64::from(state.link_flows[l] + e.flows);
        if share < delta {
            return None;
        }
        saturates |= state.link_residual[l] - delta * f64::from(e.flows) <= EPSILON_GBPS;
    }
    if !saturates {
        return None;
    }
    // `J`'s live pools, each once, with the draws it makes there.
    let racks = cluster.racks();
    let pools = job.pools();
    let live = pools.iter().enumerate().filter_map(|(k, &r)| {
        let first = racks[r].pat_gbps() > EPSILON_GBPS && !pools[..k].contains(&r);
        first.then(|| (r, pools.iter().filter(|&&q| q == r).count()))
    });
    for (r, draws) in live.clone() {
        let share = racks[r].pat_gbps() / f64::from(pool_jobs[r]);
        if share < delta || drawn(state.pat_residual[r], draws, delta) <= EPSILON_GBPS {
            return None;
        }
    }
    for e in &job.flows {
        let l = e.link as usize;
        state.link_residual[l] = (state.link_residual[l] - delta * f64::from(e.flows)).max(0.0);
        state.link_flows[l] += e.flows;
    }
    for (r, draws) in live {
        state.pat_residual[r] = drawn(state.pat_residual[r], draws, delta);
    }
    state.job_rates.insert(job.id, delta);
    Some(delta)
}

/// Group the network jobs of `jobs` into resource-connected components.
///
/// Returns one `Vec` of job indices per component, each in insertion order,
/// with the components ordered by their first member. Local jobs appear in
/// no component.
pub(crate) fn partition_components(cluster: &Cluster, jobs: &[PlacedJob]) -> Vec<Vec<usize>> {
    let mut dsu = union_jobs(cluster, jobs);
    group_components(&mut dsu, jobs)
}

/// A union-find over `cluster`'s resource nodes with every job's nodes
/// joined.
pub(crate) fn union_jobs(cluster: &Cluster, jobs: &[PlacedJob]) -> Dsu {
    let n_links = cluster.num_links();
    let mut dsu = Dsu::new(n_links + cluster.num_racks());
    for job in jobs {
        dsu.union_all(job.nodes(n_links));
    }
    dsu
}

/// [`partition_components`] over a union-find [`union_jobs`] built for
/// `jobs`. It only compresses paths, so `dsu` names the same components
/// by the same roots afterwards.
pub(crate) fn group_components(dsu: &mut Dsu, jobs: &[PlacedJob]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut root_of: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        let Some(first) = job.anchor() else { continue };
        let root = dsu.find(first);
        match root_of.get(&root) {
            Some(&g) => groups[g].1.push(i),
            None => {
                root_of.insert(root, groups.len());
                groups.push((root, vec![i]));
            }
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

/// Run Algorithm 1: estimate the max-min steady state of `jobs` in
/// `cluster`, jointly filling link bandwidth and switch PAT.
///
/// Local jobs converge instantly (infinite rate). Network jobs are
/// partitioned into resource-connected components (jobs interact only
/// through shared links or shared, INA-active PAT pools) and each component
/// is water-filled independently; within a component the algorithm
/// terminates after at most `|links| + |racks|` filling rounds because
/// every round saturates at least one link (freezing its jobs) or exhausts
/// at least one switch's PAT (fanning out its flows).
///
/// # Example
///
/// See the crate-level example.
pub fn estimate(cluster: &Cluster, jobs: &[PlacedJob]) -> SteadyState {
    let mut state = empty_state(cluster, jobs);
    let mut scratch = SolveScratch::new(cluster);
    let mut stats = WaterfillStats::default();
    for group in partition_components(cluster, jobs) {
        solve_component(cluster, jobs, &group, &mut state, &mut scratch, &mut stats);
    }
    // This entry point has no counters to report through; the estimator
    // surfaces the same count as `WaterfillStats::unconverged`.
    debug_assert_eq!(stats.unconverged, 0, "water-filling failed to converge");
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_topology::{ClusterSpec, LinkId, ServerId};

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

    #[test]
    fn lone_fully_aggregated_job_fills_its_bottleneck_link() {
        let c = cluster(1, 3, 10_000.0);
        // 2 workers on servers 0 and 1, PS on 2. Full aggregation: every
        // link carries one "rate" per worker / one aggregated stream.
        let jobs = [job(0, &c, vec![(0, 2), (1, 2)], 2)];
        let s = estimate(&c, &jobs);
        // Worker links carry 2 flows each: bottleneck 100/2 = 50.
        let rate = s.job_rate_gbps(JobId(0)).unwrap();
        assert!((rate - 50.0).abs() < 1e-6, "rate {rate}");
        assert_eq!(s.server_available_gbps(ServerId(0)), 0.0);
        // PS link carried one aggregated stream at 50.
        assert!((s.server_available_gbps(ServerId(2)) - 50.0).abs() < 1e-6);
    }

    #[test]
    fn two_jobs_share_a_common_ps_link_max_min_fairly() {
        let c = cluster(1, 5, 10_000.0);
        // Both jobs place their PS on server 4.
        let jobs = [
            job(0, &c, vec![(0, 1), (1, 1)], 4),
            job(1, &c, vec![(2, 1), (3, 1)], 4),
        ];
        let s = estimate(&c, &jobs);
        let r0 = s.job_rate_gbps(JobId(0)).unwrap();
        let r1 = s.job_rate_gbps(JobId(1)).unwrap();
        assert!((r0 - r1).abs() < 1e-6);
        // PS link: 2 aggregated streams sharing 100 Gbps => 50 each.
        assert!((r0 - 50.0).abs() < 1e-6, "rate {r0}");
        assert_eq!(s.server_available_gbps(ServerId(4)), 0.0);
    }

    #[test]
    fn pat_exhaustion_fans_out_flows_and_lowers_rates() {
        // Single-rack: 2 workers on distinct servers, PS alone; PAT tiny.
        let c = cluster(1, 3, 10.0);
        let jobs = [job(0, &c, vec![(0, 1), (1, 1)], 2)];
        let s = estimate(&c, &jobs);
        let rate = s.job_rate_gbps(JobId(0)).unwrap();
        // Phase 1: aggregated (1 flow on PS link) until PAT=10 exhausts at
        // rate 10. Phase 2: 2 unaggregated flows on the PS link; residual
        // 90 Gbps shared by 2 flows => +45 => rate 55. Worker links hold
        // one flow each (rate <= 100) so the PS link is the bottleneck.
        assert!((rate - 55.0).abs() < 1e-6, "rate {rate}");
        assert!(!s.rack_aggregating(RackId(0)));
        assert_eq!(s.link_flows(LinkId::ServerAccess(ServerId(2)), &c), 2);
    }

    #[test]
    fn pat_is_shared_fairly_between_jobs() {
        // Two identical single-rack jobs, separate PSes; PAT = 40 total.
        let c = cluster(1, 6, 40.0);
        let jobs = [
            job(0, &c, vec![(0, 1), (1, 1)], 2),
            job(1, &c, vec![(3, 1), (4, 1)], 5),
        ];
        let s = estimate(&c, &jobs);
        let r0 = s.job_rate_gbps(JobId(0)).unwrap();
        let r1 = s.job_rate_gbps(JobId(1)).unwrap();
        assert!((r0 - r1).abs() < 1e-6);
        // PAT exhausts at rate 20 each (2 jobs x 20 = 40); then each PS
        // link has 2 flows over the remaining 80 Gbps => +40 => 60.
        assert!((r0 - 60.0).abs() < 1e-6, "rate {r0}");
        assert_eq!(s.pat_residual_gbps(RackId(0)), 0.0);
    }

    #[test]
    fn local_jobs_report_infinite_rate_and_consume_nothing() {
        let c = cluster(1, 2, 1000.0);
        let local = PlacedJob::new(JobId(7), &c, &Placement::local(ServerId(0), 4));
        let s = estimate(&c, &[local]);
        assert_eq!(s.job_rate_gbps(JobId(7)), Some(f64::INFINITY));
        assert_eq!(s.server_available_gbps(ServerId(0)), 100.0);
        assert_eq!(s.num_jobs(), 1);
    }

    #[test]
    fn ina_disabled_job_does_not_draw_pat() {
        let c = cluster(1, 3, 50.0);
        let mut p = Placement::new(vec![(ServerId(0), 1), (ServerId(1), 1)], Some(ServerId(2)));
        p.set_ina_enabled(false);
        let jobs = [PlacedJob::new(JobId(0), &c, &p)];
        let s = estimate(&c, &jobs);
        // 2 unaggregated flows on the PS link from the start: rate 50.
        let rate = s.job_rate_gbps(JobId(0)).unwrap();
        assert!((rate - 50.0).abs() < 1e-6, "rate {rate}");
        assert_eq!(s.pat_residual_gbps(RackId(0)), 50.0);
    }

    #[test]
    fn cross_rack_job_is_limited_by_the_uplink_when_oversubscribed() {
        let spec = ClusterSpec {
            racks: 2,
            servers_per_rack: 2,
            gpus_per_server: 4,
            server_link_gbps: 100.0,
            pat_gbps: 0.0,
            oversubscription: 10.0,
            rtt_us: 50.0,
            racks_per_pod: None,
        };
        spec.validate().unwrap();
        let c = Cluster::new(spec);
        // Uplink capacity = 2*100/10 = 20 Gbps. One worker in each rack,
        // PS in rack 0, no INA (PAT 0).
        let jobs = [job(0, &c, vec![(0, 1), (2, 1)], 1)];
        let s = estimate(&c, &jobs);
        let rate = s.job_rate_gbps(JobId(0)).unwrap();
        // The remote worker's flow crosses both uplinks (1 flow each):
        // bottleneck 20 Gbps.
        assert!((rate - 20.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn empty_job_set_leaves_cluster_untouched() {
        let c = cluster(2, 2, 100.0);
        let s = estimate(&c, &[]);
        assert_eq!(s.num_jobs(), 0);
        for srv in 0..c.num_servers() {
            assert_eq!(s.server_available_gbps(ServerId(srv)), 100.0);
            assert_eq!(s.server_flows(ServerId(srv)), 0);
        }
    }

    #[test]
    fn asymmetric_jobs_get_max_min_not_equal_shares() {
        let c = cluster(1, 4, 100_000.0);
        // Job 0: PS shares server 3 with job 1's PS; job 0 has 2 workers on
        // server 0 (its worker link has 2 flows -> bottleneck 50); job 1
        // has 1 worker on server 1 and 1 on server 2.
        let jobs = [
            job(0, &c, vec![(0, 2)], 3),
            job(1, &c, vec![(1, 1), (2, 1)], 3),
        ];
        let s = estimate(&c, &jobs);
        let r0 = s.job_rate_gbps(JobId(0)).unwrap();
        let r1 = s.job_rate_gbps(JobId(1)).unwrap();
        // Job 0 freezes at 50 (its own worker link). Job 1 then takes the
        // rest of the PS link: both aggregated streams share 100, job 0
        // holds 50, job 1 gets 50 too... but its own links allow 100, so
        // the PS link is the binding constraint for both at 50.
        assert!((r0 - 50.0).abs() < 1e-6, "r0 {r0}");
        assert!((r1 - 50.0).abs() < 1e-6, "r1 {r1}");

        // Now give job 0 a dedicated PS: job 1 should claim more.
        let jobs = [job(0, &c, vec![(0, 2)], 3), job(1, &c, vec![(1, 1)], 2)];
        let s = estimate(&c, &jobs);
        let r0 = s.job_rate_gbps(JobId(0)).unwrap();
        let r1 = s.job_rate_gbps(JobId(1)).unwrap();
        assert!((r0 - 50.0).abs() < 1e-6, "r0 {r0}");
        assert!((r1 - 100.0).abs() < 1e-6, "r1 {r1}");
    }

    #[test]
    fn residuals_are_never_negative() {
        let c = cluster(2, 4, 30.0);
        let jobs = [
            job(0, &c, vec![(0, 2), (4, 2)], 1),
            job(1, &c, vec![(2, 1), (5, 1)], 6),
            job(2, &c, vec![(3, 4)], 7),
        ];
        let s = estimate(&c, &jobs);
        for l in 0..c.num_links() {
            let link = LinkId::from_index(l, &c);
            assert!(
                s.link_residual_gbps(link, &c) >= 0.0,
                "negative residual on {link}"
            );
        }
        for r in 0..c.num_racks() {
            assert!(s.pat_residual_gbps(RackId(r)) >= 0.0);
        }
    }

    #[test]
    fn every_network_job_is_bottlenecked_by_a_saturated_link() {
        let c = cluster(2, 4, 500.0);
        let jobs = [
            job(0, &c, vec![(0, 2), (4, 2)], 1),
            job(1, &c, vec![(2, 1), (5, 1)], 6),
        ];
        let s = estimate(&c, &jobs);
        for pj in &jobs {
            let h = pj.hierarchy().unwrap();
            let agg = |r: RackId| s.rack_aggregating(r);
            let saturated = h
                .link_flows(agg)
                .iter()
                .any(|&(l, f)| f > 0 && s.link_residual_gbps(l, &c) <= 1e-6);
            assert!(saturated, "job {} not bottlenecked", pj.id());
        }
    }

    #[test]
    fn disjoint_jobs_form_separate_components() {
        // Two jobs in different racks, never sharing a link; PAT on, but
        // each aggregates only at its own rack's switch.
        let c = cluster(2, 3, 500.0);
        let jobs = [
            job(0, &c, vec![(0, 1), (1, 1)], 2),
            job(1, &c, vec![(3, 1), (4, 1)], 5),
        ];
        let comps = partition_components(&c, &jobs);
        assert_eq!(comps, vec![vec![0], vec![1]]);
        // A shared PS server merges them.
        let jobs = [
            job(0, &c, vec![(0, 1), (1, 1)], 2),
            job(1, &c, vec![(3, 1), (4, 1)], 2),
        ];
        let comps = partition_components(&c, &jobs);
        assert_eq!(comps, vec![vec![0, 1]]);
    }

    #[test]
    fn pat_pool_couples_jobs_without_shared_links() {
        // Same rack, disjoint servers: jobs interact only through the
        // rack's PAT pool, and only while both are INA-enabled.
        let c = cluster(1, 6, 40.0);
        let ina = [
            job(0, &c, vec![(0, 1), (1, 1)], 2),
            job(1, &c, vec![(3, 1), (4, 1)], 5),
        ];
        assert_eq!(partition_components(&c, &ina), vec![vec![0, 1]]);

        let mut p = Placement::new(vec![(ServerId(0), 1), (ServerId(1), 1)], Some(ServerId(2)));
        p.set_ina_enabled(false);
        let mut q = Placement::new(vec![(ServerId(3), 1), (ServerId(4), 1)], Some(ServerId(5)));
        q.set_ina_enabled(false);
        let off = [
            PlacedJob::new(JobId(0), &c, &p),
            PlacedJob::new(JobId(1), &c, &q),
        ];
        assert_eq!(partition_components(&c, &off), vec![vec![0], vec![1]]);
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;
    use netpack_topology::{ClusterSpec, ServerId};

    #[test]
    fn sharding_relieves_a_ps_link_bottleneck() {
        // 8 workers on two servers, PS-side the bottleneck. With one PS the
        // aggregated stream still shares the PS access link with nothing,
        // so disable INA to expose the fan-in bottleneck.
        let c = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 4,
            gpus_per_server: 4,
            pat_gbps: 0.0,
            ..ClusterSpec::paper_default()
        });
        let mut single =
            Placement::new(vec![(ServerId(0), 4), (ServerId(1), 4)], Some(ServerId(2)));
        single.set_ina_enabled(false);
        let s1 = estimate(&c, &[PlacedJob::new(JobId(0), &c, &single)]);
        let r1 = s1.job_rate_gbps(JobId(0)).unwrap();
        // 8 unaggregated flows into one 100 Gbps PS link: 12.5 Gbps each.
        assert!((r1 - 12.5).abs() < 1e-6, "single-PS rate {r1}");
        assert!((s1.comm_time_s(JobId(0), 10.0).unwrap() - 10.0 / 12.5).abs() < 1e-9);

        let mut sharded = Placement::new_sharded(
            vec![(ServerId(0), 4), (ServerId(1), 4)],
            vec![ServerId(2), ServerId(3)],
        );
        sharded.set_ina_enabled(false);
        let job = PlacedJob::new(JobId(1), &c, &sharded);
        assert_eq!(job.components().len(), 2);
        assert_eq!(job.shards(), 2);
        let s2 = estimate(&c, &[job]);
        let r2 = s2.job_rate_gbps(JobId(1)).unwrap();
        // Each worker now runs 2 shard flows (one per PS): worker links
        // carry 8 flows (4 workers x 2 shards) and each PS link carries 8.
        // Bottleneck per shard flow: 100/8 = 12.5, but the gradient is
        // halved per shard, so communication time halves.
        assert!((r2 - 12.5).abs() < 1e-6, "sharded per-shard rate {r2}");
        let t1 = s1.comm_time_s(JobId(0), 10.0).unwrap();
        let t2 = s2.comm_time_s(JobId(1), 10.0).unwrap();
        assert!(
            (t2 - t1 / 2.0).abs() < 1e-9,
            "sharding must halve comm time: {t1} vs {t2}"
        );
    }

    #[test]
    fn shard_count_survives_into_the_steady_state() {
        let c = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 4,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        });
        let sharded = Placement::new_sharded(
            vec![(ServerId(0), 2), (ServerId(1), 2)],
            vec![ServerId(2), ServerId(3)],
        );
        let s = estimate(&c, &[PlacedJob::new(JobId(0), &c, &sharded)]);
        assert_eq!(s.job_shards(JobId(0)), Some(2));
        let local = PlacedJob::new(JobId(1), &c, &Placement::local(ServerId(0), 2));
        let s = estimate(&c, &[local]);
        assert_eq!(s.job_shards(JobId(1)), Some(1));
        assert_eq!(s.comm_time_s(JobId(1), 5.0), Some(0.0));
    }
}

#[cfg(test)]
mod steady_tests {
    use super::*;
    use crate::literal::{arb_cluster, arb_jobs};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// What the lone-link classes rest on. Over every one of the 2^k
        /// sets of aggregating pools of a cluster of k ≤ 4 racks: a job's
        /// run names the same links in the same order; each count lies
        /// between its value with every pool aggregating and with none
        /// (the monotonicity that lets `PlacedJob::new` look at those two
        /// views only); and an entry marked steady is a server access link
        /// of fewer than 64 flows whose count never moves — while an
        /// access link of fewer than 64 flows left unmarked does move, so
        /// the mark is not vacuous.
        #[test]
        fn a_steady_count_is_the_same_under_every_pat_view(
            (cluster, jobs) in arb_cluster().prop_flat_map(|c| {
                let jobs = arb_jobs(&c);
                (Just(c), jobs)
            })
        ) {
            let (mut all, mut none, mut run) = (Vec::new(), Vec::new(), Vec::new());
            for job in &jobs {
                write_flow_run(&cluster, &job.components, |_| true, &mut all);
                write_flow_run(&cluster, &job.components, |_| false, &mut none);
                let mut moved = vec![false; job.flows.len()];
                for view in 0..1u32 << cluster.num_racks() {
                    write_flow_run(&cluster, &job.components, |r| view >> r.0 & 1 == 1, &mut run);
                    prop_assert_eq!(run.len(), job.flows.len());
                    for (i, e) in job.flows.iter().enumerate() {
                        prop_assert_eq!(run[i].0, e.link as usize);
                        prop_assert!(all[i].1 <= run[i].1 && run[i].1 <= none[i].1);
                        prop_assert!(!e.steady || run[i].1 == e.flows);
                        moved[i] |= run[i].1 != e.flows;
                    }
                }
                for (e, moved) in job.flows.iter().zip(moved) {
                    let could_be = (e.link as usize) < cluster.num_servers() && e.flows < 64;
                    prop_assert_eq!(e.steady, could_be && !moved);
                }
            }
        }
    }
}

#[cfg(test)]
mod share_tests {
    use super::*;
    use proptest::prelude::*;

    /// Whether the skip is sound here: if it skips, the minimum keeps
    /// `delta`'s bits.
    fn sound(delta: f64, b: f64, t: f64) -> bool {
        !share_cannot_undercut(delta, b, t) || delta.min(b / t).to_bits() == delta.to_bits()
    }

    #[test]
    fn the_share_skip_takes_the_division_at_every_edge() {
        let skips = |delta: f64, b: f64, t: f64| {
            assert!(sound(delta, b, t), "δ {delta:e}, b {b:e}, t {t}");
            share_cannot_undercut(delta, b, t)
        };
        // The first link of a round meets an infinite minimum.
        assert!(!skips(f64::INFINITY, 100.0, 1.0));
        assert!(!skips(f64::INFINITY, f64::MAX, 3.0));
        // A drained link: nothing is greater than nothing, and a zero
        // minimum gives a zero threshold.
        assert!(!skips(12.5, 0.0, 4.0));
        assert!(!skips(0.0, 100.0, 4.0));
        // One flow, and as many as an `f64` counts exactly.
        assert!(skips(25.0, 100.0, 1.0));
        assert!(!skips(25.0, 25.0, 1.0));
        let t = 2f64.powi(53) - 1.0;
        assert!(skips(2f64.powi(-40), 2f64.powi(14), t));
        assert!(!skips(2f64.powi(-40), 2f64.powi(-40) * t, t));
        // A product below the normal range takes the division, unless the
        // margin lifts its threshold into the range — still above `δ·t`.
        let tiny = f64::MIN_POSITIVE / 8.0;
        assert!(!skips(tiny, 1.0, 3.0));
        assert!(skips(f64::MIN_POSITIVE.next_down(), 1.0, 1.0));
        // A product, or a threshold, past the largest float.
        assert!(!skips(1e300, f64::MAX, 1e10));
        assert!(!skips(f64::MAX.next_down(), f64::MAX, 1.0));
        // One ulp either side of the product, and either side of the
        // threshold the margin puts four to eight ulps above it.
        for (delta, t) in [
            (0.1, 3.0),
            (1.0 / 3.0, 7.0),
            (33.333_333_333_333_336, 3.0),
            (1e-3, 1e6),
        ] {
            let product = delta * t;
            let threshold = product * SHARE_MARGIN;
            assert!((4..=8).contains(&(threshold.to_bits() - product.to_bits())));
            assert!(!skips(delta, product.next_down(), t));
            assert!(!skips(delta, product, t));
            assert!(!skips(delta, product.next_up(), t));
            assert!(!skips(delta, threshold, t));
            assert!(skips(delta, threshold.next_up(), t));
        }
    }

    /// A float from raw bits, sign cleared: every residual and share is
    /// non-negative.
    fn magnitude(bits: u64) -> f64 {
        f64::from_bits(bits & !(1 << 63))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Over random bit patterns — any magnitude for `δ`, NaN excepted;
        /// a flow count up to 2⁵³ − 1; a residual that is either any
        /// magnitude or a few ulps from `δ·t` — a skip never moves the
        /// minimum off `δ`'s bits.
        #[test]
        fn a_skipped_share_never_undercuts(
            delta_bits in any::<u64>(),
            flows in prop_oneof![1u64..64, 1u64..1 << 53],
            raw in any::<u64>(),
            near in any::<bool>(),
            ulps in 0u64..16,
        ) {
            let (delta, t) = (magnitude(delta_bits), flows as f64);
            let b = if near {
                magnitude((delta * t).to_bits().wrapping_add(ulps).wrapping_sub(8))
            } else {
                magnitude(raw)
            };
            if delta.is_nan() || b.is_nan() {
                return Ok(());
            }
            prop_assert!(sound(delta, b, t), "δ {:e}, b {:e}, t {}", delta, b, t);
        }
    }
}
