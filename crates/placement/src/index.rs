//! Persistent server-class index of the flat placement path
//! (`DESIGN.md` §3.11).
//!
//! One spanning placement changes the free GPUs, flows or residual
//! bandwidth of a few dozen servers; re-bucketing all of them per job is
//! what made the warehouse batch scan-bound. [`ServerIndex`] keeps two
//! partitions of the servers alive across jobs — each a class table plus
//! one ascending member list per class — and [`refresh`](ServerIndex::refresh)
//! brings them up to date by **diffing** the live arrays against the keys
//! the index itself holds, re-keying only servers that changed. Nothing is
//! trusted from callers, so every mutation path (ledger commit/credit,
//! estimator push/pop/remove) is covered by construction.
//!
//! * **PS classes** ([`PsKey`]): servers interchangeable as ordinary PS
//!   candidates. A rack-uplink flow change re-keys the whole rack.
//! * **Filter classes** ([`FilterKey`]): servers with equal free GPUs,
//!   flows and residual bandwidth — equal DP weight *and* equal value, so
//!   the first `⌊g_max/w⌋` members by id are the class's only entries that
//!   can survive [`CandidateFilter`](crate::CandidateFilter)'s top-K cut.
//!
//! When more than one server in [`REBUILD_SHARE`] would be re-keyed, or
//! dead (memberless) classes pile up, the partition is rebuilt by the same
//! routine that builds it cold.

use crate::dp::ServerStats;
use crate::netpack::NetPackPlacer;
use crate::select::CandidateFilter;
use netpack_topology::{FlatTopology, ServerId};
use netpack_waterfill::SteadyState;
use std::collections::VecDeque;

/// Re-key at most `n / REBUILD_SHARE` servers incrementally; past that a
/// from-scratch pass (4–12 ns/server) is cheaper than the member-list moves.
const REBUILD_SHARE: usize = 8;

/// Servers settled per sweep of the refresh diff.
const DIFF_CHUNK: usize = 64;

/// Mixes a 64-bit word (splitmix64 finalizer) — the class-table hash.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whether `same` holds for every element — no early exit, so the sweep
/// vectorizes.
fn all_hold<T>(xs: &[T], same: impl Fn(&T) -> bool) -> bool {
    xs.iter().fold(true, |acc, x| acc & same(x))
}

/// A partition key: plain data with a cheap, well-mixed hash.
pub(crate) trait ClassKey: Copy + PartialEq + std::fmt::Debug {
    fn hash(&self) -> u64;
}

/// Key under which two servers are interchangeable as *ordinary* PS
/// candidates (outside every plan rack) for one steady state: the score is
/// a pure function of these four fields plus plan-wide constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PsKey {
    /// Steady-state flows on the server's access link.
    flows: u32,
    /// Bit pattern of the server's residual access bandwidth.
    avail_bits: u64,
    /// Existing flows on the server's rack uplink.
    fc_up: u32,
    /// Bit pattern of the rack uplink capacity (uniform today; keyed so
    /// heterogeneous racks can never silently break the dedup).
    up_bits: u64,
}

impl ClassKey for PsKey {
    fn hash(&self) -> u64 {
        let ints = u64::from(self.flows) << 32 | u64::from(self.fc_up);
        mix64(ints.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.avail_bits ^ self.up_bits.rotate_left(32))
    }
}

/// Key under which two servers are interchangeable for the worker DP:
/// same weight, same flow count, same value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FilterKey {
    /// Free GPUs on the server.
    pub free: u32,
    /// Steady-state flows on the server's access link.
    pub flows: u32,
    /// Bit pattern of the server's residual access bandwidth.
    pub avail_bits: u64,
}

impl ClassKey for FilterKey {
    fn hash(&self) -> u64 {
        let ints = u64::from(self.free) << 32 | u64::from(self.flows);
        mix64(ints.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.avail_bits)
    }
}

/// One partition of the servers into classes of equal key.
#[derive(Debug, Clone)]
pub(crate) struct Partition<K> {
    /// Open-addressing slots holding `class id + 1` (0 = empty), sized by
    /// class count. Lookup only — iteration goes through `keys`.
    slots: Vec<u32>,
    /// Class keys in first-seen order.
    keys: Vec<K>,
    /// Ascending server ids per class. A deque, because placements drain
    /// the big idle class from its low-id end.
    members: Vec<VecDeque<u32>>,
    class_of: Vec<u32>,
    /// Classes with no members: they keep their table entry (and revive if
    /// the key recurs) until the next rebuild reclaims them.
    dead: usize,
}

impl<K: ClassKey> Partition<K> {
    fn new() -> Self {
        Partition {
            slots: vec![0; 16],
            keys: Vec::new(),
            members: Vec::new(),
            class_of: Vec::new(),
            dead: 0,
        }
    }

    /// `(key, ascending members)` of every class, dead ones included.
    pub(crate) fn classes(&self) -> impl Iterator<Item = (&K, &VecDeque<u32>)> {
        self.keys.iter().zip(&self.members)
    }

    /// Class ids in use, dead classes included: `class_of` is below this.
    pub(crate) fn num_classes(&self) -> usize {
        self.keys.len()
    }

    /// The class `server` is currently filed under.
    pub(crate) fn class_of(&self, server: usize) -> usize {
        self.class_of[server] as usize
    }

    /// The key `server` is currently filed under.
    fn key_of(&self, server: usize) -> &K {
        &self.keys[self.class_of[server] as usize]
    }

    /// Whether dead classes have piled up enough to be worth a rebuild:
    /// each costs every plan a probe, a rebuild costs a pass over `n`.
    fn bloated(&self, n: usize) -> bool {
        self.dead > self.keys.len() - self.dead + n / 32
    }

    /// Class id of `key`, creating an empty class if it is new.
    fn class_for(&mut self, key: K) -> u32 {
        if (self.keys.len() + 1) * 2 > self.slots.len() {
            self.slots = vec![0; self.slots.len() * 2];
            for (cid, k) in self.keys.iter().enumerate() {
                let mut slot = k.hash() as usize & (self.slots.len() - 1);
                while self.slots[slot] != 0 {
                    slot = (slot + 1) & (self.slots.len() - 1);
                }
                self.slots[slot] = cid as u32 + 1;
            }
        }
        let mask = self.slots.len() - 1;
        let mut slot = key.hash() as usize & mask;
        loop {
            match self.slots[slot] {
                0 => {
                    let cid = self.keys.len() as u32;
                    self.slots[slot] = cid + 1;
                    self.keys.push(key);
                    if self.members.len() < self.keys.len() {
                        self.members.push(VecDeque::new());
                    }
                    self.dead += 1;
                    return cid;
                }
                v if self.keys[v as usize - 1] == key => return v - 1,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Bucket all `n` servers from scratch, in one ascending pass — the
    /// cold build and the fallback when too much changed.
    fn rebuild(&mut self, n: usize, key_of: impl Fn(usize) -> K) {
        self.slots.fill(0);
        self.keys.clear();
        // Small lists keep their allocation for whichever class inherits
        // them; big ones are dropped rather than left under a small class.
        for m in &mut self.members {
            if m.capacity() > 64 {
                *m = VecDeque::new();
            }
            m.clear();
        }
        self.class_of.resize(n, 0);
        // Neighbours usually share a key (idle runs, one job's workers):
        // remember the last class and skip the probe when it repeats.
        let mut last: Option<(K, u32)> = None;
        for s in 0..n {
            let key = key_of(s);
            let cid = match last {
                Some((k, cid)) if k == key => cid,
                _ => self.class_for(key),
            };
            last = Some((key, cid));
            self.class_of[s] = cid;
            self.members[cid as usize].push_back(s as u32);
        }
        self.members.truncate(self.keys.len());
        self.dead = 0;
    }

    /// Move `server` to the class of `key`; `true` if it changed class.
    fn rekey(&mut self, server: usize, key: K) -> bool {
        let old = self.class_of[server] as usize;
        if self.keys[old] == key {
            return false;
        }
        let new = self.class_for(key) as usize;
        let id = server as u32;
        if let Ok(pos) = self.members[old].binary_search(&id) {
            self.members[old].remove(pos);
        }
        self.dead += usize::from(self.members[old].is_empty());
        self.dead -= usize::from(self.members[new].is_empty());
        let pos = self.members[new].partition_point(|&m| m < id);
        self.members[new].insert(pos, id);
        self.class_of[server] = new as u32;
        true
    }

    /// Bring the partition in line with `key_of`: re-key the `stale`
    /// servers one by one, or rebuild when that would move more than
    /// `n / REBUILD_SHARE` of them. Returns `(rebuilt, servers re-keyed)`.
    fn update(&mut self, n: usize, stale: &[u32], key_of: impl Fn(usize) -> K) -> (bool, u64) {
        if self.class_of.len() != n || stale.len() > n / REBUILD_SHARE || self.bloated(n) {
            self.rebuild(n, key_of);
            return (true, 0);
        }
        let rekeyed = stale
            .iter()
            .map(|&s| u64::from(self.rekey(s as usize, key_of(s as usize))))
            .sum();
        (false, rekeyed)
    }

    /// Test oracle: `Err` naming the first difference between two
    /// partitions as sets of `(key, ascending members)` live classes (class
    /// ids and dead classes may differ), or a miscounted `dead`.
    fn same_as(&self, other: &Self) -> Result<(), String> {
        let canonical = |p: &Self| {
            let mut live: Vec<(K, Vec<u32>)> = p
                .classes()
                .filter(|(_, m)| !m.is_empty())
                .map(|(k, m)| (*k, m.iter().copied().collect()))
                .collect();
            live.sort_by_key(|(_, m)| m[0]);
            live
        };
        let (a, b) = (canonical(self), canonical(other));
        if let Some((x, y)) = a.iter().zip(&b).find(|(x, y)| x != y) {
            return Err(format!("class {x:?} should be {y:?}"));
        }
        if a.len() != b.len() || self.keys.len() - self.dead != a.len() {
            return Err(format!(
                "{} live classes ({} counted) against {}",
                a.len(),
                self.keys.len() - self.dead,
                b.len()
            ));
        }
        match (0..self.class_of.len()).find(|&s| self.key_of(s) != other.key_of(s)) {
            Some(s) => Err(format!("server {s} filed under {:?}", self.key_of(s))),
            None => Ok(()),
        }
    }
}

/// What one [`ServerIndex::refresh`] did, for the perf counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RefreshStats {
    /// Partitions rebuilt from scratch (0..=2).
    pub rebuilds: u64,
    /// Servers moved between classes incrementally, both partitions.
    pub rekeyed: u64,
    /// Live PS classes after the refresh.
    pub classes: u64,
}

/// The two persistent partitions; see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct ServerIndex {
    pub ps: Partition<PsKey>,
    pub filter: Partition<FilterKey>,
    /// Refresh scratch: servers whose filter key moved.
    changed: Vec<u32>,
    /// Refresh scratch: servers whose PS key may have moved — `changed`
    /// plus every server of a rack whose uplink flow count moved.
    ps_stale: Vec<u32>,
}

impl ServerIndex {
    pub(crate) fn new() -> Self {
        ServerIndex {
            ps: Partition::new(),
            filter: Partition::new(),
            changed: Vec::new(),
            ps_stale: Vec::new(),
        }
    }

    /// Bring both partitions in line with the live ledger and steady
    /// state. The first call builds them; later calls diff every server's
    /// `(free GPUs, flows, avail bits)` against its filter key and every
    /// rack's uplink flows against its first server's PS key, so the index
    /// is its own snapshot and no caller has to report what it mutated.
    pub(crate) fn refresh(
        &mut self,
        topo: &FlatTopology,
        gpus_free: &[u32],
        state: &SteadyState,
    ) -> RefreshStats {
        let n = topo.num_servers();
        let flows = state.servers_flows();
        let avail = state.servers_available_gbps();
        let rack_fc = state.rack_uplinks_flows();
        assert!(gpus_free.len() == n && flows.len() == n && avail.len() == n);
        let filter_key = |s: usize| FilterKey {
            free: gpus_free[s],
            flows: flows[s],
            avail_bits: avail[s].to_bits(),
        };
        let ps_key = |s: usize| {
            let rack = topo.rack_of(s);
            PsKey {
                flows: flows[s],
                avail_bits: avail[s].to_bits(),
                fc_up: rack_fc[rack],
                up_bits: topo.rack_uplink_gbps(rack).to_bits(),
            }
        };
        self.changed.clear();
        self.ps_stale.clear();
        if self.filter.class_of.len() == n {
            // Most servers sit in long runs of one class (the idle one at
            // warehouse scale): settle a whole chunk with four branch-free
            // sweeps against its first server's key before looking closer.
            for start in (0..n).step_by(DIFF_CHUNK) {
                let chunk = start..(start + DIFF_CHUNK).min(n);
                let class = self.filter.class_of[start];
                let key = self.filter.keys[class as usize];
                if all_hold(&self.filter.class_of[chunk.clone()], |&c| c == class)
                    && all_hold(&gpus_free[chunk.clone()], |&f| f == key.free)
                    && all_hold(&flows[chunk.clone()], |&f| f == key.flows)
                    && all_hold(&avail[chunk.clone()], |a| a.to_bits() == key.avail_bits)
                {
                    continue;
                }
                for s in chunk {
                    if *self.filter.key_of(s) != filter_key(s) {
                        self.changed.push(s as u32);
                    }
                }
            }
            for (rack, &fc) in rack_fc.iter().enumerate() {
                let servers = topo.rack_server_range(rack);
                if self.ps.key_of(servers.start).fc_up != fc {
                    self.ps_stale.extend(servers.map(|s| s as u32));
                }
            }
            // A server in both lists is re-keyed twice; the second is a no-op.
            self.ps_stale.extend_from_slice(&self.changed);
        }
        let (f_rebuilt, f_rekeyed) = self.filter.update(n, &self.changed, filter_key);
        let (p_rebuilt, p_rekeyed) = self.ps.update(n, &self.ps_stale, ps_key);
        RefreshStats {
            rebuilds: u64::from(f_rebuilt) + u64::from(p_rebuilt),
            rekeyed: f_rekeyed + p_rekeyed,
            classes: (self.ps.keys.len() - self.ps.dead) as u64,
        }
    }

    /// Offer `filter` every server that can survive its top-K cut for a
    /// job whose plans carry at most `g_max` GPUs: the first `g_max / w`
    /// members of each filter class with `w > 0` free GPUs. Members of a
    /// class share weight, flows and value, so past the first `g_max / w`
    /// (ascending id) each has that many strictly better class-mates and
    /// the filter would drop it: the kept set equals a full scan's.
    pub(crate) fn offer_candidates(&self, capacity: f64, g_max: usize, filter: &mut CandidateFilter) {
        for (key, members) in self.filter.classes() {
            let w = key.free as usize;
            if w == 0 {
                continue;
            }
            let avail = f64::from_bits(key.avail_bits);
            let value = NetPackPlacer::server_value(capacity, avail, key.flows);
            for &s in members.iter().take(g_max / w) {
                filter.offer(ServerStats {
                    id: ServerId(s as usize),
                    gpus_free: w,
                    value,
                    flows: key.flows,
                });
            }
        }
    }

    /// Test oracle: refresh a copy of this index and compare it, as a set
    /// of `(key, ascending members)` classes per partition, with an index
    /// built from scratch over the same live arrays.
    pub(crate) fn audit(
        &self,
        topo: &FlatTopology,
        gpus_free: &[u32],
        state: &SteadyState,
    ) -> Result<(), String> {
        let mut warm = self.clone();
        warm.refresh(topo, gpus_free, state);
        let mut cold = ServerIndex::new();
        cold.refresh(topo, gpus_free, state);
        warm.ps.same_as(&cold.ps).map_err(|e| format!("PS partition: {e}"))?;
        warm.filter.same_as(&cold.filter).map_err(|e| format!("filter partition: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_model::Placement;
    use netpack_topology::{Cluster, ClusterSpec, JobId};
    use netpack_waterfill::{IncrementalEstimator, PlacedJob};

    /// Deterministic xorshift so sequences are seeded and reproducible.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Drive a ledger and a warm estimator through a seeded random
    /// sequence of commit / credit and push / pop / remove / replace,
    /// refreshing the index at random points, and hold it to a full scan:
    /// same PS and filter partitions as a from-scratch build, same
    /// candidates out of the filter as offering every server. Returns how
    /// many refreshes took the diff path, the `n / 8` fallback, and the
    /// dead-class reclaim.
    fn churn(cluster: &Cluster, seed: u64, steps: usize) -> [usize; 3] {
        let topo = FlatTopology::new(cluster);
        let n = topo.num_servers();
        let gps = topo.gpus_per_server();
        let capacity = cluster.spec().server_link_gbps;
        let mut rng = Rng(seed | 1);
        let mut free = vec![gps as u32; n];
        let mut inc = IncrementalEstimator::new(cluster, &[]);
        // Running jobs in the estimator's insertion order.
        let mut live: Vec<(JobId, Placement)> = Vec::new();
        let mut index = ServerIndex::new();
        let (mut incremental, mut fallbacks, mut reclaims) = (0, 0, 0);
        for step in 0..steps {
            match rng.below(6) {
                0..=2 => {
                    let mut workers: Vec<(ServerId, usize)> = Vec::new();
                    for _ in 0..2 + rng.below(5) {
                        let s = rng.below(n);
                        if free[s] > 0 && workers.iter().all(|&(w, _)| w.0 != s) {
                            workers.push((ServerId(s), 1 + rng.below(free[s] as usize)));
                        }
                    }
                    if workers.len() < 2 {
                        continue;
                    }
                    for &(s, w) in &workers {
                        free[s.0] -= w as u32;
                    }
                    let p = Placement::new(workers, Some(ServerId(rng.below(n))));
                    let id = JobId(step as u64);
                    inc.push(cluster, PlacedJob::new(id, cluster, &p));
                    live.push((id, p));
                }
                3 if !live.is_empty() => {
                    let (id, p) = live.remove(rng.below(live.len()));
                    assert!(inc.remove(cluster, id));
                    p.workers().iter().for_each(|&(s, w)| free[s.0] += w as u32);
                }
                4 if !live.is_empty() => {
                    let (id, p) = live.pop().unwrap();
                    assert_eq!(inc.pop(cluster), Some(id));
                    p.workers().iter().for_each(|&(s, w)| free[s.0] += w as u32);
                }
                5 if !live.is_empty() => {
                    let (id, mut p) = live.remove(rng.below(live.len()));
                    p.set_ina_enabled(!p.ina_enabled());
                    inc.replace(cluster, PlacedJob::new(id, cluster, &p));
                    live.push((id, p));
                }
                _ => continue,
            }
            // Refresh only now and then, so diffs of every size pile up.
            if rng.below(3) == 0 {
                continue;
            }
            let state = inc.state();
            assert_eq!(index.audit(&topo, &free, state), Ok(()), "seed {seed} step {step}");
            let bloated = index.ps.bloated(n) || index.filter.bloated(n);
            let stats = index.refresh(&topo, &free, state);
            match stats.rebuilds {
                0 => incremental += 1,
                _ if bloated => reclaims += 1,
                _ => fallbacks += 1,
            }
            let demand = 1 + rng.below(3 * gps);
            let mut full = CandidateFilter::new(gps, demand, gps, Some(16));
            for (s, &gpus_free) in free.iter().enumerate() {
                let flows = state.servers_flows()[s];
                let avail = state.servers_available_gbps()[s];
                full.offer(ServerStats {
                    id: ServerId(s),
                    gpus_free: gpus_free as usize,
                    value: NetPackPlacer::server_value(capacity, avail, flows),
                    flows,
                });
            }
            let mut fed = CandidateFilter::new(gps, demand, gps, Some(16));
            index.offer_candidates(capacity, demand + gps, &mut fed);
            assert_eq!(fed.candidates(), full.candidates(), "seed {seed} step {step}");
            assert!(fed.offered() <= full.offered());
        }
        [incremental, fallbacks, reclaims]
    }

    /// Every refresh path must have been exercised across the seeds.
    fn churn_seeds(cluster: &Cluster, seeds: std::ops::Range<u64>) {
        let mut paths = [0; 3];
        for seed in seeds {
            let ran = churn(cluster, seed, 400);
            paths.iter_mut().zip(ran).for_each(|(total, r)| *total += r);
        }
        assert!(paths.iter().all(|&p| p > 0), "[diff, fallback, reclaim] = {paths:?}");
    }

    #[test]
    fn index_equals_scan_under_churn_on_a_three_tier_tree() {
        let cluster = Cluster::new(ClusterSpec {
            racks: 64,
            servers_per_rack: 8,
            gpus_per_server: 4,
            racks_per_pod: Some(8),
            ..ClusterSpec::paper_default()
        });
        churn_seeds(&cluster, 1..7);
    }

    #[test]
    fn index_equals_scan_under_churn_on_wide_racks() {
        let cluster = Cluster::new(ClusterSpec {
            racks: 16,
            servers_per_rack: 40,
            gpus_per_server: 8,
            ..ClusterSpec::paper_default()
        });
        churn_seeds(&cluster, 11..15);
    }
}
