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

use crate::{SteadyState, WaterfillStats, EPSILON_GBPS};
use netpack_model::{JobHierarchy, Placement};
use netpack_topology::{Cluster, JobId, RackId};
use std::collections::BTreeMap;

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
    /// The job's flow run: `(link index, flow count)` for every link it
    /// crosses, each once, in tree-walk order, under the *virgin* PAT view
    /// (a pool aggregates iff its rack has any PAT at all). That view is a
    /// cluster constant and exactly the one every solve starts from — the
    /// pools an INA-enabled job can see are all inside its component, and a
    /// component is solved from virgin resources — so it is computed once
    /// here and copied, never re-derived, at solve set-up.
    flows: Vec<(usize, u32)>,
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
        let racks = cluster.racks();
        let mut flows = Vec::new();
        write_flow_run(cluster, &components, |r| racks[r.0].pat_gbps() > EPSILON_GBPS, &mut flows, 0);
        let switches = components.iter().flat_map(|h| h.switches()).map(|r| r.0).collect();
        PlacedJob {
            id,
            ina_enabled: components.iter().any(JobHierarchy::ina_enabled),
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
        let pools = if self.ina_enabled { &self.switches[..] } else { &[] };
        let links = self.flows.iter().map(|&(l, _)| l);
        links.chain(pools.iter().map(move |&r| n_links + r))
    }

    /// One of [`nodes`](Self::nodes), enough to find the job's component;
    /// `None` for local jobs.
    pub(crate) fn anchor(&self) -> Option<usize> {
        self.flows.first().map(|&(l, _)| l)
    }
}

/// Write the flow run of a job's `trees` into `flows[start..]`, pushing
/// past the end: `(link index, flow count)` while exactly the pools `agg`
/// names aggregate, each link once in first-seen order. Returns the run's
/// end. The link set of a job never changes, so rewriting a run under
/// another view overwrites it in place.
fn write_flow_run(
    cluster: &Cluster,
    trees: &[JobHierarchy],
    agg: impl Fn(RackId) -> bool,
    flows: &mut Vec<(usize, u32)>,
    start: usize,
) -> usize {
    let mut end = start;
    // One tree reports each link once; only sharded jobs can repeat a link
    // across trees and need the merge.
    let merge = trees.len() > 1;
    for h in trees {
        h.for_each_link_flow(&agg, |l, f| {
            let idx = l.index(cluster);
            if merge {
                if let Some(e) = flows[start..end].iter_mut().find(|(i, _)| *i == idx) {
                    e.1 += f;
                    return;
                }
            }
            if end == flows.len() {
                flows.push((idx, f));
            } else {
                flows[end] = (idx, f);
            }
            end += 1;
        });
    }
    end
}

/// Minimal union-find over resource-node indices.
#[derive(Debug, Clone)]
pub(crate) struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    pub(crate) fn new(nodes: usize) -> Self {
        Dsu {
            parent: (0..nodes).collect(),
        }
    }

    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Make `x` a singleton again. Sound only when every node of `x`'s
    /// component is isolated in the same sweep: a node left pointing at `x`
    /// would otherwise be cut off from its old root.
    pub(crate) fn isolate(&mut self, x: usize) {
        self.parent[x] = x;
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
            self.parent[hi] = lo;
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

/// Reusable arenas of [`solve_component`]. `link_total` and `rack_jobs` are
/// cluster-sized and indexed by link / rack id; everything else is sized by
/// the component. Nothing here carries meaning between solves — a solve
/// resets what it reads — so one instance serves any sequence of them.
#[derive(Debug, Clone, Default)]
pub(crate) struct SolveScratch {
    /// Flows of unfrozen jobs per link, maintained across rounds.
    link_total: Vec<u64>,
    /// INA-enabled unfrozen jobs per rack (one per switch occurrence),
    /// whatever the rack's PAT; only read for racks with PAT left.
    rack_jobs: Vec<u32>,
    /// Every link of the component, ascending.
    links: Vec<usize>,
    /// The links some unfrozen job still crosses, ascending.
    live_links: Vec<usize>,
    /// Racks an INA-enabled member aggregates at whose PAT is not yet
    /// exhausted, ascending.
    live_racks: Vec<usize>,
    /// Unfrozen members (positions in `members`), in member order.
    unfrozen: Vec<usize>,
    /// Per-member `(link index, flow count)` runs, back to back; member `m`
    /// owns `flows[flow_start[m]..flow_start[m + 1]]`. The link set of a
    /// job never changes, so a PAT flip rewrites counts in place.
    flows: Vec<(usize, u32)>,
    flow_start: Vec<usize>,
    /// Per-member switch (rack) occurrences, same layout.
    switches: Vec<usize>,
    switch_start: Vec<usize>,
    ina_enabled: Vec<bool>,
    rate: Vec<f64>,
}

impl SolveScratch {
    pub(crate) fn new(cluster: &Cluster) -> Self {
        SolveScratch {
            link_total: vec![0; cluster.num_links()],
            rack_jobs: vec![0; cluster.num_racks()],
            ..SolveScratch::default()
        }
    }

    /// Rewrite member `m`'s flow run: `job`'s flow counts while exactly
    /// the pools with `pat` left aggregate.
    fn write_flows(&mut self, cluster: &Cluster, m: usize, job: &PlacedJob, pat: &[f64]) {
        let agg = |r: RackId| pat[r.0] > EPSILON_GBPS;
        let end = write_flow_run(cluster, &job.components, agg, &mut self.flows, self.flow_start[m]);
        debug_assert_eq!(end, self.flow_start[m + 1]);
    }

    /// Every link of the component last solved, ascending — the links that
    /// solve reset and rewrote.
    pub(crate) fn links(&self) -> &[usize] {
        &self.links
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
/// Set-up copies each member's cached flow run and switch list
/// ([`PlacedJob::new`] derived them under the view a solve starts from);
/// no hierarchy is walked unless a pool runs dry. A round costs the links
/// and jobs still *live*: per-link flow totals and
/// per-rack job counts are carried across rounds (a job's share is
/// subtracted when it freezes; a PAT flip, which changes flow counts,
/// recounts), and the share minimum, the saturation check and the augment
/// run over compacted lists of live links and unfrozen jobs. Both lists
/// keep their original order, so every float operation happens on the same
/// operands in the same sequence as a sweep over the whole component
/// (`literal::solve_component`, the test oracle) — `DESIGN.md` §3.2.
pub(crate) fn solve_component(
    cluster: &Cluster,
    jobs: &[PlacedJob],
    members: &[usize],
    state: &mut SteadyState,
    scratch: &mut SolveScratch,
    stats: &mut WaterfillStats,
) {
    if members.is_empty() {
        return;
    }
    stats.components_solved += 1;
    stats.jobs_resolved += members.len() as u64;
    let bw = &mut state.link_residual;
    let pat = &mut state.pat_residual;
    let s = scratch;

    // Per-member runs, the component's link list, and the rack counts.
    s.flows.clear();
    s.flow_start.clear();
    s.switches.clear();
    s.switch_start.clear();
    s.ina_enabled.clear();
    s.links.clear();
    s.live_racks.clear();
    for &ji in members {
        let job = &jobs[ji];
        s.flow_start.push(s.flows.len());
        s.flows.extend_from_slice(&job.flows);
        s.switch_start.push(s.switches.len());
        s.switches.extend_from_slice(&job.switches);
        s.ina_enabled.push(job.ina_enabled);
        if job.ina_enabled {
            s.live_racks.extend_from_slice(&job.switches);
        }
    }
    s.flow_start.push(s.flows.len());
    s.switch_start.push(s.switches.len());
    s.links.extend(s.flows.iter().map(|&(l, _)| l));
    s.links.sort_unstable();
    s.links.dedup();
    s.live_racks.sort_unstable();
    s.live_racks.dedup();
    // Round bound with headroom; the loop always exits earlier because
    // every round saturates a link or exhausts a PAT pool.
    let max_rounds = 2 * (s.links.len() + s.live_racks.len()) + 8;
    for &r in &s.live_racks {
        pat[r] = cluster.racks()[r].pat_gbps();
        s.rack_jobs[r] = 0;
    }
    for m in 0..members.len() {
        if s.ina_enabled[m] {
            for &r in &s.switches[s.switch_start[m]..s.switch_start[m + 1]] {
                s.rack_jobs[r] += 1;
            }
        }
    }
    s.live_racks.retain(|&r| pat[r] > EPSILON_GBPS);
    for &l in &s.links {
        bw[l] = link_capacity(cluster, l);
        state.link_flows[l] = 0;
        s.link_total[l] = 0;
    }
    for &(l, f) in &s.flows {
        s.link_total[l] += u64::from(f);
    }
    s.live_links.clear();
    s.live_links.extend(s.links.iter().copied().filter(|&l| s.link_total[l] > 0));
    s.unfrozen.clear();
    s.unfrozen.extend(0..members.len());
    s.rate.clear();
    s.rate.resize(members.len(), 0.0);

    // Whether any pool ran dry during this solve: until one does, every
    // run in the arena still holds the counts it was copied with.
    let mut any_flip = false;
    let mut flows_stale = false;
    for _ in 0..max_rounds {
        if s.unfrozen.is_empty() {
            break;
        }
        stats.rounds += 1;
        // UpdateFlows: a PAT pool ran dry last round, so the unfrozen
        // jobs' flow counts changed — rewrite them and recount the links.
        if flows_stale {
            for u in 0..s.unfrozen.len() {
                let m = s.unfrozen[u];
                s.write_flows(cluster, m, &jobs[members[m]], pat);
            }
            for &l in &s.live_links {
                s.link_total[l] = 0;
            }
            for &m in &s.unfrozen {
                for &(l, f) in &s.flows[s.flow_start[m]..s.flow_start[m + 1]] {
                    s.link_total[l] += u64::from(f);
                }
            }
            stats.link_visits += s.live_links.len() as u64;
            flows_stale = false;
        }

        // Minimum per-flow share across loaded links and switches.
        let mut delta = f64::INFINITY;
        for &l in &s.live_links {
            delta = delta.min((bw[l].max(0.0)) / s.link_total[l] as f64);
        }
        for &r in &s.live_racks {
            if s.rack_jobs[r] > 0 {
                delta = delta.min((pat[r].max(0.0)) / f64::from(s.rack_jobs[r]));
            }
        }
        stats.link_visits += 2 * s.live_links.len() as u64;
        if !delta.is_finite() {
            // No unfrozen job touches any link: freeze them all at their
            // current rate (degenerate but defensively handled).
            s.unfrozen.clear();
            break;
        }

        // Augment: raise every active job by delta, drain links and PAT.
        for &m in &s.unfrozen {
            s.rate[m] += delta;
            for &(l, f) in &s.flows[s.flow_start[m]..s.flow_start[m + 1]] {
                bw[l] -= delta * f64::from(f);
            }
            if s.ina_enabled[m] {
                for &r in &s.switches[s.switch_start[m]..s.switch_start[m + 1]] {
                    if pat[r] > EPSILON_GBPS {
                        pat[r] -= delta;
                    }
                }
            }
        }
        // Pin near-zero residuals and detect PAT flips.
        s.live_racks.retain(|&r| {
            let flipped = pat[r] <= EPSILON_GBPS;
            if flipped {
                pat[r] = 0.0;
                flows_stale = true;
            }
            !flipped
        });
        any_flip |= flows_stale;
        let mut any_link_saturated = false;
        for &l in &s.live_links {
            if bw[l] <= EPSILON_GBPS {
                bw[l] = bw[l].max(0.0);
                any_link_saturated = true;
            }
        }
        // Freeze jobs crossing a saturated link and take their flows out
        // of the running totals.
        if any_link_saturated {
            let SolveScratch {
                unfrozen,
                flows,
                flow_start,
                switches,
                switch_start,
                ina_enabled,
                link_total,
                rack_jobs,
                live_links,
                ..
            } = &mut *s;
            unfrozen.retain(|&m| {
                let run = &flows[flow_start[m]..flow_start[m + 1]];
                let frozen = run.iter().any(|&(l, f)| f > 0 && bw[l] <= EPSILON_GBPS);
                if frozen {
                    for &(l, f) in run {
                        link_total[l] -= u64::from(f);
                    }
                    if ina_enabled[m] {
                        for &r in &switches[switch_start[m]..switch_start[m + 1]] {
                            rack_jobs[r] -= 1;
                        }
                    }
                }
                !frozen
            });
            live_links.retain(|&l| link_total[l] > 0);
        }
    }
    stats.unconverged += u64::from(!s.unfrozen.is_empty());

    // Converged flow counts including frozen jobs, under the final PAT view
    // (a job's own switches are all inside its component, so the component
    // view and the global view agree). With no flip that view is the one
    // the runs were cached under and the arena already holds the answer; a
    // frozen job's run is stale after one, so walk the trees again.
    if any_flip {
        let agg = |r: RackId| pat[r.0] > EPSILON_GBPS;
        for &ji in members {
            for h in jobs[ji].components() {
                h.for_each_link_flow(agg, |l, f| state.link_flows[l.index(cluster)] += f);
            }
        }
    } else {
        for &(l, f) in &s.flows {
            state.link_flows[l] += f;
        }
    }
    for (m, &ji) in members.iter().enumerate() {
        state.job_rates.insert(jobs[ji].id, s.rate[m]);
    }
    // Residual clamping.
    for &l in &s.links {
        bw[l] = bw[l].max(0.0);
    }
}

/// Group the network jobs of `jobs` into resource-connected components.
///
/// Returns one `Vec` of job indices per component, each in insertion order,
/// with the components ordered by their first member. Local jobs appear in
/// no component.
pub(crate) fn partition_components(cluster: &Cluster, jobs: &[PlacedJob]) -> Vec<Vec<usize>> {
    let n_links = cluster.num_links();
    let mut dsu = Dsu::new(n_links + cluster.num_racks());
    for job in jobs {
        dsu.union_all(job.nodes(n_links));
    }
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
            let saturated = h.link_flows(agg).iter().any(|&(l, f)| {
                f > 0 && s.link_residual_gbps(l, &c) <= 1e-6
            });
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
        let mut single = Placement::new(
            vec![(ServerId(0), 4), (ServerId(1), 4)],
            Some(ServerId(2)),
        );
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
