//! Persistent server-class index of the flat placement path
//! (`DESIGN.md` §3.11).
//!
//! One placement changes the free GPUs, flows or residual bandwidth of a
//! few dozen servers; looking at all of them per job is what made the
//! warehouse batch scan-bound. [`ServerIndex`] keeps two partitions of the
//! servers alive across jobs — each a class table plus one ascending member
//! list per class — and [`refresh`](ServerIndex::refresh) brings them up to
//! date from two **change journals**, re-reading only the servers and rack
//! uplinks they name. The journals are complete because each is written at
//! the single place its array can change:
//!
//! * free GPUs — [`GpuLedger::set_free`](crate::ledger::GpuLedger::set_free),
//!   the ledger's only mutator (its fields are private to its module);
//! * flows and residual bandwidth — the estimator's component reset, the
//!   only writer of the cached link numbers
//!   ([`IncrementalEstimator::journal`](netpack_waterfill::IncrementalEstimator::journal)).
//!
//! The index trusts them, so [`audit`](ServerIndex::audit) is strict: it
//! compares the partitions *as the journals left them* with a cold build,
//! never through a pass that could re-derive a missed entry. Debug builds
//! run it after every refresh.
//!
//! * **PS classes** ([`PsKey`]): servers interchangeable as ordinary PS
//!   candidates. An access-link entry re-keys its server when the PS key's
//!   own flows or avail bits moved. A rack-uplink flow change moves every
//!   class present in the rack a slice at a time
//!   ([`Partition::refile_range`]): a class's members in the rack are one
//!   contiguous run of its ascending member list, and they all take the
//!   same new key.
//! * **Filter classes** ([`FilterKey`]): servers with equal free GPUs,
//!   flows and residual bandwidth — equal DP weight *and* equal value, so
//!   the first `⌊g_max/w⌋` members by id are the class's only entries that
//!   can survive [`CandidateFilter`](crate::CandidateFilter)'s top-K cut,
//!   and the front member is the class's only entry the single-server
//!   shortcut can pick. Every server with no free GPU shares one key,
//!   [`FilterKey::FULL`]: neither reader looks at its class (the DP is
//!   offered no server of weight 0, the shortcut wants at least one GPU),
//!   so a full server whose link changes — most of what a contended batch
//!   journals — moves only in the PS partition, and no dead classes pile
//!   up behind it.
//!
//! A refresh re-keys a class, not its servers, where it can: a re-solved
//! job's servers all take its new residual at once, so most servers that
//! change key change it with their whole class. [`Partition::update`]
//! counts each stale server once and groups the ones whose key moved by
//! class; a class all of whose members move to one key that no class holds
//! is renamed in place — its slot leaves the probe table by backward-shift
//! deletion and its new key goes in, and no member list, `class_of` entry
//! or dead class is touched. The invariant, which the audit checks: every
//! class's key probes to that class, and the table holds one slot per
//! class. Only the servers left over move one by one. The racks whose
//! uplink flow count moved come after that update, unless it rebuilt the
//! partition: a class lying wholly in such a rack is renamed the same way,
//! and the rack's run of any other class is drained from its member list
//! and merged into the new key's class, one run per class and rack.
//!
//! When more than one server in [`REBUILD_SHARE`] is left over, or dead
//! (memberless) classes pile up, the partition is rebuilt by the same
//! routine that builds it cold, [`Partition::rebuild`]. It files a run of
//! equal keys at a time and compares the first [`HEAD`] (16) servers of a
//! run key by key, so the short runs of a loaded cluster cost what they
//! always did. A run that reaches past them is ended by the partition's
//! finder ([`KeyArrays::run_end`]), which compares only the arrays the
//! key is made of — free GPUs, flows and avail bits, or flows and avail
//! bits rack by rack with each rack's uplink flows and capacity — 16
//! servers at a time, with a fold that does not stop early. An idle
//! partition is one run: 0.5–0.8 ns a server on the 50 176-server
//! warehouse tree, where comparing keys cost 2–4.

use crate::dp::ServerStats;
use crate::netpack::NetPackPlacer;
use crate::select::CandidateFilter;
use netpack_topology::{FlatTopology, ServerId};
use netpack_waterfill::SteadyState;
use std::collections::VecDeque;
use std::ops::{AddAssign, Range};

/// Move at most `n / REBUILD_SHARE` servers one by one; past that a
/// from-scratch pass is cheaper than the member-list moves. It costs under
/// 1 ns/server per partition on a cold 50 176-server warehouse build, whose
/// partitions are one run each, ~33 on the contended 256-server rebuilds of
/// `service_saturate`, whose runs are ~2 servers long, and ~24 on
/// `sim_sweep`'s, which average ~540 servers (seed 1, 2-core VM).
/// Servers whose whole class is renamed are not counted: a rename costs a
/// delete and a probe in the class table, whatever the class's size. Nor
/// are the servers of a rack whose uplink flow count moved: they move a
/// class's run at a time ([`Partition::refile_range`]), at the cost of a
/// pass over the rack and one drain and merge per class present there.
const REBUILD_SHARE: usize = 8;

/// High bit of a `class_of` entry: the server was already counted by the
/// running [`Partition::update`]. Class ids stay below it.
const COUNTED: u32 = 1 << 31;

/// [`Group::first`] of a class that cannot be renamed: two of its movers
/// disagree on the new key, or it has more members than there are stale
/// servers.
const NO_RENAME: u32 = u32::MAX;

/// What one [`Partition::update`] found in one class: how many of its
/// servers' keys moved, and where the first of them sits in the update's
/// move list (`NO_RENAME` once the class cannot be renamed).
#[derive(Debug, Clone, Copy, Default)]
struct Group {
    movers: u32,
    first: u32,
}

/// Mixes a 64-bit word (splitmix64 finalizer) — the class-table hash.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
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
    pub flows: u32,
    /// Bit pattern of the server's residual access bandwidth.
    pub avail_bits: u64,
    /// Existing flows on the server's rack uplink.
    pub fc_up: u32,
    /// Bit pattern of the rack uplink capacity (uniform today; keyed so
    /// heterogeneous racks can never silently break the dedup).
    pub up_bits: u64,
}

impl ClassKey for PsKey {
    fn hash(&self) -> u64 {
        let ints = u64::from(self.flows) << 32 | u64::from(self.fc_up);
        mix64(
            ints.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ self.avail_bits
                ^ self.up_bits.rotate_left(32),
        )
    }
}

/// Key under which two servers are interchangeable for the worker DP:
/// same weight, same flow count, same value. Every server with no free GPU
/// is filed under [`FilterKey::FULL`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FilterKey {
    /// Free GPUs on the server.
    pub free: u32,
    /// Steady-state flows on the server's access link.
    pub flows: u32,
    /// Bit pattern of the server's residual access bandwidth.
    pub avail_bits: u64,
}

impl FilterKey {
    /// The one key of every full server. Neither reader looks at its
    /// class: the DP is offered no server of weight 0, and no job fits on
    /// one.
    const FULL: FilterKey = FilterKey {
        free: 0,
        flows: 0,
        avail_bits: 0,
    };
}

impl ClassKey for FilterKey {
    fn hash(&self) -> u64 {
        let ints = u64::from(self.free) << 32 | u64::from(self.flows);
        mix64(ints.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.avail_bits)
    }
}

/// Servers of a run [`Partition::rebuild`] compares key by key before it
/// hands the rest of the run to [`KeyArrays::run_end`]; also the chunk that
/// finder compares at a time.
const HEAD: usize = 16;

/// Where a partition's keys come from: the live arrays a key is made of.
trait KeyArrays<K> {
    /// Number of servers.
    fn len(&self) -> usize;

    /// The key of server `s`.
    fn key(&self, s: usize) -> K;

    /// The first server at or after server `from` whose key is not `key`,
    /// or [`len`](Self::len): every server in `from..` up to it has `key`.
    /// It compares only the arrays the key is made of, [`HEAD`] servers
    /// at a time ([`first_differing`]).
    fn run_end(&self, from: usize, key: &K) -> usize;
}

/// The first `s` in `from..end` whose key differs, or `end`;
/// `any_differs(r)` tells whether some server in `r` does. Whole chunks of
/// [`HEAD`] servers are asked first, each folded without stopping early so
/// the compiler can compare the chunk's arrays in vector registers; only
/// the chunk that holds a difference, and the tail, are asked server by
/// server.
fn first_differing(from: usize, end: usize, any_differs: impl Fn(Range<usize>) -> bool) -> usize {
    let mut s = from;
    while end - s >= HEAD && !any_differs(s..s + HEAD) {
        s += HEAD;
    }
    (s..end).find(|&t| any_differs(t..t + 1)).unwrap_or(end)
}

/// The arrays a [`FilterKey`] is made of: free GPUs, flows and residual
/// bandwidth per server.
struct FilterArrays<'a> {
    gpus_free: &'a [u32],
    flows: &'a [u32],
    avail: &'a [f64],
}

impl KeyArrays<FilterKey> for FilterArrays<'_> {
    fn len(&self) -> usize {
        self.gpus_free.len()
    }

    fn key(&self, s: usize) -> FilterKey {
        match self.gpus_free[s] {
            0 => FilterKey::FULL,
            free => FilterKey {
                free,
                flows: self.flows[s],
                avail_bits: self.avail[s].to_bits(),
            },
        }
    }

    /// A run of [`FilterKey::FULL`] ends at the first server with a free
    /// GPU, whatever the flows and bandwidth of the full ones; any other
    /// run at the first server that differs in one of the three arrays.
    fn run_end(&self, from: usize, key: &FilterKey) -> usize {
        let free = self.gpus_free;
        if *key == FilterKey::FULL {
            return first_differing(from, self.len(), |r| {
                free[r].iter().fold(false, |any, &g| any | (g != 0))
            });
        }
        first_differing(from, self.len(), |r| {
            let servers = free[r.clone()]
                .iter()
                .zip(&self.flows[r.clone()])
                .zip(&self.avail[r]);
            servers.fold(false, |any, ((&g, &f), &a)| {
                any | (g != key.free) | (f != key.flows) | (a.to_bits() != key.avail_bits)
            })
        })
    }
}

/// The arrays a [`PsKey`] is made of: flows and residual bandwidth per
/// server, and per rack its servers, uplink flows and uplink capacity.
struct PsArrays<'a> {
    flows: &'a [u32],
    avail: &'a [f64],
    /// The rack of every server.
    server_rack: &'a [u32],
    /// The first server of every rack, then the server count.
    rack_start: &'a [u32],
    /// Flows on every rack's uplink.
    rack_fc: &'a [u32],
    /// Every rack's uplink capacity.
    rack_up: &'a [f64],
}

impl KeyArrays<PsKey> for PsArrays<'_> {
    fn len(&self) -> usize {
        self.flows.len()
    }

    fn key(&self, s: usize) -> PsKey {
        let rack = self.server_rack[s] as usize;
        PsKey {
            flows: self.flows[s],
            avail_bits: self.avail[s].to_bits(),
            fc_up: self.rack_fc[rack],
            up_bits: self.rack_up[rack].to_bits(),
        }
    }

    /// Rack by rack: a rack whose `(fc_up, uplink bits)` differ from the
    /// key's ends the run at its first server; inside a rack that matches,
    /// the run ends at the first server whose flows or avail bits differ.
    fn run_end(&self, from: usize, key: &PsKey) -> usize {
        let n = self.len();
        let mut rack = self.server_rack[from] as usize;
        let mut s = from;
        loop {
            let end = self.rack_start[rack + 1] as usize;
            if s < end {
                if self.rack_fc[rack] != key.fc_up || self.rack_up[rack].to_bits() != key.up_bits {
                    return s;
                }
                s = first_differing(s, end, |r| {
                    let servers = self.flows[r.clone()].iter().zip(&self.avail[r]);
                    servers.fold(false, |any, (&f, &a)| {
                        any | (f != key.flows) | (a.to_bits() != key.avail_bits)
                    })
                });
                if s < end {
                    return s;
                }
            }
            if end >= n {
                return n;
            }
            rack += 1;
        }
    }
}

/// The live arrays of both partitions' keys.
fn key_arrays<'a>(
    topo: &'a FlatTopology,
    gpus_free: &'a [u32],
    state: &'a SteadyState,
) -> (FilterArrays<'a>, PsArrays<'a>) {
    let (flows, avail) = (state.servers_flows(), state.servers_available_gbps());
    let ps = PsArrays {
        flows,
        avail,
        server_rack: topo.server_racks(),
        rack_start: topo.rack_starts(),
        rack_fc: state.rack_uplinks_flows(),
        rack_up: topo.rack_uplinks_gbps(),
    };
    (
        FilterArrays {
            gpus_free,
            flows,
            avail,
        },
        ps,
    )
}

/// Merge the ascending `run` into the ascending `dst`, which holds none of
/// its ids, through `side`: the shorter end of `dst` past the run's
/// position is drained into `side` and put back merged with it, so the
/// cost is the run plus that end, not the list.
fn merge_into(dst: &mut VecDeque<u32>, run: &[u32], side: &mut Vec<u32>) {
    let (Some(&first), Some(&last)) = (run.first(), run.last()) else {
        return;
    };
    let lo = dst.partition_point(|&m| m < first);
    let hi = dst.partition_point(|&m| m < last);
    side.clear();
    if lo < dst.len() - hi {
        side.extend(dst.drain(..hi));
        let (mut i, mut j) = (run.len(), side.len());
        while i + j > 0 {
            if j == 0 || (i > 0 && run[i - 1] > side[j - 1]) {
                i -= 1;
                dst.push_front(run[i]);
            } else {
                j -= 1;
                dst.push_front(side[j]);
            }
        }
    } else {
        side.extend(dst.drain(lo..));
        let (mut i, mut j) = (0, 0);
        while i < run.len() || j < side.len() {
            if j == side.len() || (i < run.len() && run[i] < side[j]) {
                dst.push_back(run[i]);
                i += 1;
            } else {
                dst.push_back(side[j]);
                j += 1;
            }
        }
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
    /// Update scratch, one entry per class id, all zero between updates.
    /// It only grows, so an update writes the entries of the classes it
    /// touches and nothing else.
    groups: Vec<Group>,
    /// Update scratch: each stale server whose key moved, once, with its
    /// new key.
    moves: Vec<(u32, K)>,
    /// Update scratch: the classes those servers belong to, once each.
    touched: Vec<u32>,
    /// [`refile_range`](Self::refile_range) scratch: the run being moved,
    /// and the part of its new class's member list it is merged with.
    run: Vec<u32>,
    side: Vec<u32>,
}

impl<K: ClassKey> Partition<K> {
    fn new() -> Self {
        Partition {
            slots: vec![0; 16],
            keys: Vec::new(),
            members: Vec::new(),
            class_of: Vec::new(),
            dead: 0,
            groups: Vec::new(),
            moves: Vec::new(),
            touched: Vec::new(),
            run: Vec::new(),
            side: Vec::new(),
        }
    }

    /// `(key, ascending members)` of every class, dead ones included.
    pub(crate) fn classes(&self) -> impl Iterator<Item = (&K, &VecDeque<u32>)> {
        self.keys.iter().zip(&self.members)
    }

    /// Ascending members of class `class`, an index into
    /// [`classes`](Self::classes)' order.
    pub(crate) fn members_of(&self, class: usize) -> &VecDeque<u32> {
        &self.members[class]
    }

    /// The key `server` is currently filed under.
    fn key_of(&self, server: usize) -> &K {
        &self.keys[self.class_of[server] as usize]
    }

    /// Whether dead classes have piled up enough to be worth a rebuild:
    /// each costs every class walk a probe, a rebuild costs a pass over `n`.
    fn bloated(&self, n: usize) -> bool {
        self.dead > self.keys.len() - self.dead + n / 32
    }

    /// `Ok(class id)` of the class holding `key`, or `Err(slot)`: the empty
    /// slot that ends the key's probe run.
    fn probe(&self, key: &K) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = key.hash() as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                v if self.keys[v as usize - 1] == *key => return Ok(v - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// File class `class` in the first empty slot of its key's probe run;
    /// no slot may hold that key yet.
    fn slot_in(&mut self, class: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = self.keys[class as usize].hash() as usize & mask;
        while self.slots[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = class + 1;
    }

    /// Take class `class`'s slot out of the table by backward shift: each
    /// later entry of the probe run whose home does not lie between the
    /// hole and itself moves back into the hole, so every key stays
    /// reachable from its home without crossing an empty slot. Returns the
    /// one slot it left empty.
    fn unslot(&mut self, class: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut hole = self.keys[class as usize].hash() as usize & mask;
        while self.slots[hole] != class + 1 {
            hole = (hole + 1) & mask;
        }
        let mut next = (hole + 1) & mask;
        while self.slots[next] != 0 {
            let home = self.keys[self.slots[next] as usize - 1].hash() as usize & mask;
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[hole] = 0;
        hole
    }

    /// Class id of `key`, creating an empty class if it is new.
    fn class_for(&mut self, key: K) -> u32 {
        if (self.keys.len() + 1) * 2 > self.slots.len() {
            self.slots = vec![0; self.slots.len() * 2];
            for cid in 0..self.keys.len() as u32 {
                self.slot_in(cid);
            }
        }
        match self.probe(&key) {
            Ok(cid) => cid,
            Err(slot) => {
                let cid = self.keys.len() as u32;
                self.slots[slot] = cid + 1;
                self.keys.push(key);
                if self.members.len() < self.keys.len() {
                    self.members.push(VecDeque::new());
                }
                self.dead += 1;
                cid
            }
        }
    }

    /// File class `class`, members and all, under `key` if no class holds
    /// it; `true` if it did. Neither its member list nor any `class_of`
    /// entry changes.
    fn rename(&mut self, class: u32, key: K) -> bool {
        let Err(slot) = self.probe(&key) else {
            return false;
        };
        // The slot the delete empties is the key's first empty one if it
        // lies in the key's probe run before `slot`.
        let hole = self.unslot(class);
        let mask = self.slots.len() - 1;
        let home = key.hash() as usize & mask;
        let slot = if hole.wrapping_sub(home) & mask < slot.wrapping_sub(home) & mask {
            hole
        } else {
            slot
        };
        self.keys[class as usize] = key;
        self.slots[slot] = class + 1;
        true
    }

    /// Empty the table for a rebuild.
    fn reset(&mut self) {
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
        self.class_of.clear();
        self.dead = 0;
    }

    /// Bucket all servers from scratch, in one ascending pass — the cold
    /// build and the fallback when too much changed. Neighbours usually
    /// share a key (idle runs, one job's workers), so keys are filed a run
    /// at a time: one probe, one fill of `class_of` and one extension of
    /// the member list per run of equal keys. The first [`HEAD`] servers of
    /// a run are compared key by key, so short runs cost no more than
    /// that; a run that reaches past them is ended by
    /// [`run_end`](KeyArrays::run_end), which compares the key's arrays
    /// instead of building keys. A debug build checks every run it files
    /// against [`key`](KeyArrays::key): each server of the run has the
    /// run's key, and the server after it does not.
    fn rebuild(&mut self, arrays: &impl KeyArrays<K>) {
        let n = arrays.len();
        self.reset();
        let mut run = (n > 0).then(|| (0, arrays.key(0)));
        while let Some((start, key)) = run {
            let head = n.min(start + HEAD);
            run = (start + 1..head)
                .map(|s| (s, arrays.key(s)))
                .find(|&(_, k)| k != key);
            if run.is_none() && head < n {
                let end = arrays.run_end(head, &key);
                run = (end < n).then(|| (end, arrays.key(end)));
            }
            let end = run.map_or(n, |(s, _)| s);
            debug_assert!(
                (start..end).all(|s| arrays.key(s) == key) && run.is_none_or(|(_, k)| k != key),
                "run {start}..{end} of {key:?} misfiled"
            );
            let cid = self.class_for(key);
            self.class_of.resize(end, cid);
            self.members[cid as usize].extend(start as u32..end as u32);
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

    /// Bring the partition in line with `arrays` for the `stale` servers
    /// (repeats allowed). Each stale server whose key moved is counted once
    /// in its class; a class all of whose members move to one key no class
    /// holds is renamed in place, and the servers left over move one by
    /// one — or the partition is rebuilt when more than
    /// `n / REBUILD_SHARE` are left over, decided as soon as that is
    /// certain. What it did, in `rebuilds`, `rekeyed` and `renamed`.
    fn update(&mut self, stale: &[u32], arrays: &impl KeyArrays<K>) -> RefreshStats {
        let n = arrays.len();
        let most = n / REBUILD_SHARE;
        let mut done = RefreshStats::default();
        if self.class_of.len() != n || self.bloated(n) {
            self.rebuild(arrays);
            done.rebuilds = 1;
            return done;
        }
        if self.groups.len() < self.keys.len() {
            self.groups.resize(self.keys.len(), Group::default());
        }
        // Movers of classes that cannot be renamed: left over whatever the
        // rest of `stale` holds, so past `most` the count can stop.
        let mut stuck = 0;
        for &s in stale {
            let class = self.class_of[s as usize];
            if class & COUNTED != 0 {
                continue;
            }
            self.class_of[s as usize] = class | COUNTED;
            let key = arrays.key(s as usize);
            if self.keys[class as usize] == key {
                continue;
            }
            let group = &mut self.groups[class as usize];
            if group.movers == 0 {
                group.first = self.moves.len() as u32;
                self.touched.push(class);
                if self.members[class as usize].len() > stale.len() {
                    group.first = NO_RENAME;
                }
            } else if group.first != NO_RENAME && self.moves[group.first as usize].1 != key {
                stuck += group.movers as usize;
                group.first = NO_RENAME;
            }
            group.movers += 1;
            stuck += usize::from(group.first == NO_RENAME);
            self.moves.push((s, key));
            if stuck > most {
                break;
            }
        }
        for &s in stale {
            self.class_of[s as usize] &= !COUNTED;
        }
        let whole = |p: &Self, class: u32| {
            let group = p.groups[class as usize];
            group.first != NO_RENAME && group.movers as usize == p.members[class as usize].len()
        };
        let touched = std::mem::take(&mut self.touched);
        let renamable: usize = touched
            .iter()
            .filter(|&&class| whole(self, class))
            .map(|&class| self.groups[class as usize].movers as usize)
            .sum();
        // Renames stop once a rebuild is certain.
        let mut left_over = self.moves.len() - renamable;
        for &class in &touched {
            if left_over <= most && whole(self, class) {
                let group = self.groups[class as usize];
                if self.rename(class, self.moves[group.first as usize].1) {
                    done.renamed += 1;
                } else {
                    left_over += group.movers as usize;
                }
            }
            self.groups[class as usize] = Group::default();
        }
        self.touched = touched;
        self.touched.clear();
        let moves = std::mem::take(&mut self.moves);
        if left_over > most {
            self.rebuild(arrays);
            done.rebuilds = 1;
        } else {
            // A renamed class's movers already sit under their new key.
            for &(s, key) in &moves {
                done.rekeyed += u64::from(self.rekey(s as usize, key));
            }
        }
        self.moves = moves;
        self.moves.clear();
        done
    }

    /// Re-key every server of `range` whose key `refile` moves, one class
    /// at a time. A class's members in `range` are one contiguous run of its
    /// ascending member list, and all of them take one new key. A class
    /// whose run is its whole member list is renamed in place if no class
    /// holds the new key; otherwise the run is drained and merged into the
    /// class of the new key. `refile` must map each key it returns to
    /// itself, so a server already moved is left where it is. What it did,
    /// in `renamed` and `slices` (runs drained).
    fn refile_range(&mut self, range: Range<usize>, refile: impl Fn(&K) -> K) -> RefreshStats {
        let mut done = RefreshStats::default();
        for s in range.clone() {
            let class = self.class_of[s];
            let key = refile(&self.keys[class as usize]);
            if key == self.keys[class as usize] {
                continue;
            }
            // `s` is the class's first member in `range`: a lower one would
            // have moved the run already.
            let members = &self.members[class as usize];
            let from = members.partition_point(|&m| (m as usize) < s);
            let to = members.partition_point(|&m| (m as usize) < range.end);
            let whole = from == 0 && to == members.len();
            if whole && self.rename(class, key) {
                done.renamed += 1;
                continue;
            }
            let into = self.class_for(key);
            self.dead -= usize::from(self.members[into as usize].is_empty());
            self.run.clear();
            self.run
                .extend(self.members[class as usize].drain(from..to));
            merge_into(&mut self.members[into as usize], &self.run, &mut self.side);
            for &m in &self.run {
                self.class_of[m as usize] = into;
            }
            self.dead += usize::from(whole);
            done.slices += 1;
        }
        done
    }

    /// Test oracle: `Err` naming the first difference between two
    /// partitions as sets of `(key, ascending members)` live classes (class
    /// ids and dead classes may differ), a miscounted `dead`, a class its
    /// own key does not probe to, a slot no class owns, or update scratch
    /// left dirty.
    fn same_as(&self, other: &Self) -> Result<(), String> {
        if let Some(class) =
            (0..self.keys.len() as u32).find(|&c| self.probe(&self.keys[c as usize]) != Ok(c))
        {
            let key = self.keys[class as usize];
            return Err(format!(
                "class {class} ({key:?}) probes to {:?}",
                self.probe(&key)
            ));
        }
        let filed = self.slots.iter().filter(|&&v| v != 0).count();
        if filed != self.keys.len() {
            return Err(format!(
                "{filed} slots filed for {} classes",
                self.keys.len()
            ));
        }
        if !self.moves.is_empty()
            || !self.touched.is_empty()
            || self.groups.iter().any(|g| g.movers != 0)
        {
            return Err("update scratch left dirty".to_string());
        }
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
        let misfiled = self
            .class_of
            .iter()
            .zip(&other.class_of)
            .position(|(&a, &b)| self.keys[a as usize] != other.keys[b as usize]);
        match misfiled {
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
    /// Servers moved between classes one by one, both partitions.
    pub rekeyed: u64,
    /// Classes renamed in place, members and all, both partitions.
    pub renamed: u64,
    /// Runs of a class's member list moved to another class whole — one
    /// per class present in a rack whose uplink flow count moved, unless
    /// the class was renamed.
    pub slices: u64,
    /// Journal entries whose keys were compared with the live arrays — a
    /// ledger entry's filter key, an access link's PS key (0 when the
    /// partitions were built cold).
    pub journal_servers: u64,
    /// Live PS classes after the refresh.
    pub classes: u64,
}

/// Sums, field by field: what several refreshes did.
impl AddAssign for RefreshStats {
    fn add_assign(&mut self, other: RefreshStats) {
        self.rebuilds += other.rebuilds;
        self.rekeyed += other.rekeyed;
        self.renamed += other.renamed;
        self.slices += other.slices;
        self.journal_servers += other.journal_servers;
        self.classes += other.classes;
    }
}

/// The two persistent partitions; see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct ServerIndex {
    pub ps: Partition<PsKey>,
    pub filter: Partition<FilterKey>,
    /// Refresh scratch: journalled servers whose filter key moved.
    changed: Vec<u32>,
    /// Refresh scratch: journalled servers whose PS key's flows or avail
    /// bits moved.
    ps_stale: Vec<u32>,
    /// Refresh scratch: racks whose uplink flow count moved.
    stale_racks: Vec<u32>,
}

impl ServerIndex {
    pub(crate) fn new() -> Self {
        ServerIndex {
            ps: Partition::new(),
            filter: Partition::new(),
            changed: Vec::new(),
            ps_stale: Vec::new(),
            stale_racks: Vec::new(),
        }
    }

    /// Forget every class but keep the arrays: the next
    /// [`refresh`](Self::refresh) builds both partitions cold.
    pub(crate) fn forget(&mut self) {
        self.ps.reset();
        self.filter.reset();
    }

    /// Bring both partitions in line with the live ledger and steady
    /// state. The first call builds them. Later calls trust the journals:
    /// `servers` must name every server whose free-GPU count was written
    /// since the previous refresh and `links` (flat link indices) every
    /// link whose flows or residual were — repeats and unchanged entries
    /// are fine, omissions are not. Only those entries are compared, each
    /// with the one key it can have moved: a ledger entry's server with its
    /// filter key, an access link's with its PS key's `(flows, avail
    /// bits)`, a rack uplink's flows with the rack's first server's PS key.
    /// The servers whose keys moved are updated one by one or with their
    /// class; then, unless that rebuilt the PS partition, each rack whose
    /// uplink flows moved has its classes refiled a run at a time.
    pub(crate) fn refresh(
        &mut self,
        topo: &FlatTopology,
        gpus_free: &[u32],
        state: &SteadyState,
        servers: &[u32],
        links: &[u32],
    ) -> RefreshStats {
        let n = topo.num_servers();
        let flows = state.servers_flows();
        let avail = state.servers_available_gbps();
        let rack_fc = state.rack_uplinks_flows();
        assert!(gpus_free.len() == n && flows.len() == n && avail.len() == n);
        let (filter_arrays, ps_arrays) = key_arrays(topo, gpus_free, state);
        self.changed.clear();
        self.ps_stale.clear();
        self.stale_racks.clear();
        let mut journal_servers = 0;
        if self.filter.class_of.len() == n {
            // A ledger entry wrote the server's free GPUs and nothing else:
            // its filter key may have moved, its PS key has not.
            let filter = &self.filter;
            let moved = |&s: &u32| *filter.key_of(s as usize) != filter_arrays.key(s as usize);
            self.changed.extend(servers.iter().copied().filter(moved));
            journal_servers = servers.len() as u64;
            for &link in links {
                let link = link as usize;
                if link >= n {
                    let rack = link - n;
                    let first = topo.rack_server_range(rack).start;
                    if self.ps.key_of(first).fc_up != rack_fc[rack] {
                        self.stale_racks.push(rack as u32);
                    }
                    continue;
                }
                // An access-link entry may have moved the server's flows and
                // avail bits. Its PS key holds the two as the last refresh
                // left them, and so does its filter key unless that is
                // `FULL` — which a full server keeps whatever its link does.
                // So the PS key decides both; a free count that moved too
                // is the ledger entry's to compare. A server named twice (a
                // ledger entry, or a stale rack, besides this one) is
                // counted once by the update.
                journal_servers += 1;
                let filed = self.ps.key_of(link);
                if filed.flows != flows[link] || filed.avail_bits != avail[link].to_bits() {
                    self.ps_stale.push(link as u32);
                    if gpus_free[link] != 0 {
                        self.changed.push(link as u32);
                    }
                }
            }
        }
        let mut stats = self.filter.update(&self.changed, &filter_arrays);
        let ps = self.ps.update(&self.ps_stale, &ps_arrays);
        if ps.rebuilds == 0 {
            // Every server the update moved holds its live key; the rest
            // of a stale rack holds its rack's old uplink flow count.
            for &rack in &self.stale_racks {
                let fc_up = rack_fc[rack as usize];
                let servers = topo.rack_server_range(rack as usize);
                stats += self.ps.refile_range(servers, |key| PsKey { fc_up, ..*key });
            }
        }
        stats += ps;
        stats.journal_servers = journal_servers;
        stats.classes = (self.ps.keys.len() - self.ps.dead) as u64;
        stats
    }

    /// The single-server shortcut answered from the filter partition: the
    /// server Algorithm 2's scan of all servers picks for a job of `gpus`
    /// GPUs — tightest fit, ties toward the most residual bandwidth, first
    /// (lowest id) wins. Members of a class tie on both criteria, so only
    /// each class's front member competes. `gpus` is at least 1 (a `Job`
    /// is built with one GPU or more), so the full servers' class, whose
    /// key keeps no bandwidth, never competes.
    pub(crate) fn tightest_fit(&self, gpus: usize) -> Option<usize> {
        debug_assert!(gpus > 0, "a job of no GPU would pick among full servers");
        let mut best: Option<(u32, f64, u32)> = None;
        for (key, members) in self.filter.classes() {
            let Some(&front) = members.front() else {
                continue;
            };
            if (key.free as usize) < gpus {
                continue;
            }
            let avail = f64::from_bits(key.avail_bits);
            let wins = match best {
                None => true,
                Some((bfree, bavail, bfront)) => {
                    key.free < bfree
                        || (key.free == bfree
                            && avail.total_cmp(&bavail).then(bfront.cmp(&front)).is_gt())
                }
            };
            if wins {
                best = Some((key.free, avail, front));
            }
        }
        best.map(|(_, _, front)| front as usize)
    }

    /// Offer `filter` every server that can survive its top-K cut for a
    /// job whose plans carry at most `g_max` GPUs: the first `g_max / w`
    /// members of each filter class with `w > 0` free GPUs. Members of a
    /// class share weight, flows and value, so past the first `g_max / w`
    /// (ascending id) each has that many strictly better class-mates and
    /// the filter would drop it: the kept set equals a full scan's.
    pub(crate) fn offer_candidates(
        &self,
        capacity: f64,
        g_max: usize,
        filter: &mut CandidateFilter,
    ) {
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

    /// Oracle: this index with the pending journals `servers` and `links`
    /// applied — and nothing else; with both empty it is compared as it
    /// stands — must equal, as a set of `(key, ascending members)` classes
    /// per partition, an index built from scratch over the same live
    /// arrays. `Ok` before the first refresh built it.
    pub(crate) fn audit(
        &self,
        topo: &FlatTopology,
        gpus_free: &[u32],
        state: &SteadyState,
        servers: &[u32],
        links: &[u32],
    ) -> Result<(), String> {
        if self.filter.class_of.len() != topo.num_servers() {
            return Ok(());
        }
        let pending = !(servers.is_empty() && links.is_empty());
        let caught_up = pending.then(|| {
            let mut index = self.clone();
            index.refresh(topo, gpus_free, state, servers, links);
            index
        });
        let warm = caught_up.as_ref().unwrap_or(self);
        let mut cold = ServerIndex::new();
        cold.refresh(topo, gpus_free, state, &[], &[]);
        warm.ps
            .same_as(&cold.ps)
            .map_err(|e| format!("PS partition: {e}"))?;
        warm.filter
            .same_as(&cold.filter)
            .map_err(|e| format!("filter partition: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::GpuLedger;
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
    /// interleaving of commit / credit and push / pop / remove / replace —
    /// all *staged*, as completions between two passes are, and settled
    /// once before the index reads the journals, so a link only a removed
    /// job touched must reach the journal through the pending list —
    /// refreshing the index from the two journals, each in a seeded random
    /// order, after every 0–50 operations (0–3 in the quiet stretches; so
    /// anything from an empty journal to every link marked arrives at
    /// once), and hold it to a full scan: same PS and filter partitions as
    /// a from-scratch build — compared as the journals left them — same
    /// candidates out of the filter as offering every server, same
    /// single-server pick as the literal scan. Returns how many refreshes
    /// took each path ([`PATHS`]): the incremental update, the `n / 8`
    /// fallback and the dead-class reclaim, then, of the incremental ones,
    /// how many had a class take each of [`class_paths`]' four and each of
    /// [`slice_paths`]' four. Of those it also holds the counts to what the
    /// partitions show: `renamed` to the class ids whose key changed, and
    /// `slices` to the runs a stale rack moved out of their class.
    fn churn(cluster: &Cluster, seed: u64, refreshes: usize) -> [usize; PATHS.len()] {
        let topo = FlatTopology::new(cluster);
        let n = topo.num_servers();
        let gps = topo.gpus_per_server();
        let capacity = cluster.spec().server_link_gbps;
        let mut rng = Rng(seed | 1);
        let mut ledger = GpuLedger::new(cluster);
        let mut inc = IncrementalEstimator::new(cluster, &[]);
        // Running jobs in the estimator's insertion order.
        let mut live: Vec<(JobId, Placement)> = Vec::new();
        let mut index = ServerIndex::new();
        let mut next_id = 0;
        let mut paths = [0; PATHS.len()];
        let credit = |ledger: &mut GpuLedger, p: &Placement| {
            for &(s, w) in p.workers() {
                ledger.set_free(s.0, ledger.free()[s.0] + w as u32);
            }
        };
        // A quiet stretch draws its operations from this list: commits
        // are rare, and most operations (6) take the spare GPUs of a
        // running job's worker server outside any job. A full server no
        // longer moves between filter classes when its link does, so it is
        // the servers leaving a class of their own for a shared one —
        // taken full here, or credited back idle by a completion — that
        // leave dead classes to pile up.
        const QUIET_OPS: [usize; 7] = [0, 3, 4, 5, 6, 6, 6];
        for round in 0..refreshes {
            // Quiet stretches (a few operations per refresh, so dead classes
            // pile up with no fallback rebuild to sweep them) alternate
            // with busy ones.
            let quiet = round % 80 < 60;
            let ops = if quiet { rng.below(4) } else { rng.below(51) };
            for _ in 0..ops {
                let op = if quiet {
                    QUIET_OPS[rng.below(QUIET_OPS.len())]
                } else {
                    rng.below(6)
                };
                match op {
                    0..=2 => {
                        let mut workers: Vec<(ServerId, usize)> = Vec::new();
                        for _ in 0..2 + rng.below(5) {
                            let s = rng.below(n);
                            let free = ledger.free()[s] as usize;
                            if free > 0 && workers.iter().all(|&(w, _)| w.0 != s) {
                                workers.push((ServerId(s), 1 + rng.below(free)));
                            }
                        }
                        if workers.len() < 2 {
                            continue;
                        }
                        for &(s, w) in &workers {
                            ledger.set_free(s.0, ledger.free()[s.0] - w as u32);
                        }
                        let p = Placement::new(workers, Some(ServerId(rng.below(n))));
                        let id = JobId(next_id);
                        next_id += 1;
                        inc.stage_push(PlacedJob::new(id, cluster, &p));
                        live.push((id, p));
                    }
                    3 if !live.is_empty() => {
                        let idx = rng.below(live.len());
                        let (id, p) = live.remove(idx);
                        assert!(inc.stage_remove_at(idx, id));
                        credit(&mut ledger, &p);
                    }
                    4 if !live.is_empty() => {
                        let (id, p) = live.pop().unwrap();
                        assert_eq!(inc.stage_pop(), Some(id));
                        credit(&mut ledger, &p);
                    }
                    5 if !live.is_empty() => {
                        let (id, mut p) = live.remove(rng.below(live.len()));
                        p.set_ina_enabled(!p.ina_enabled());
                        assert!(inc.stage_remove(id));
                        inc.stage_push(PlacedJob::new(id, cluster, &p));
                        live.push((id, p));
                    }
                    6 if !live.is_empty() => {
                        let workers = live[rng.below(live.len())].1.workers();
                        let (s, _) = workers[rng.below(workers.len())];
                        ledger.set_free(s.0, 0);
                    }
                    _ => {}
                }
            }
            inc.settle(cluster);
            assert!(inc.journal().len() <= cluster.num_links());
            let bloated = index.ps.bloated(n) || index.filter.bloated(n);
            // Neither journal promises an order (the estimator's follows
            // its members' runs): feed both shuffled.
            let mut shuffled = |journal: &[u32]| {
                let mut journal = journal.to_vec();
                for i in (1..journal.len()).rev() {
                    journal.swap(i, rng.below(i + 1));
                }
                journal
            };
            let (servers, links) = (shuffled(ledger.journal()), shuffled(inc.journal()));
            let before = index.clone();
            let stats = index.refresh(&topo, ledger.free(), inc.state(), &servers, &links);
            ledger.clear_journal();
            inc.clear_journal();
            let state = inc.state();
            assert_eq!(
                index.audit(&topo, ledger.free(), state, &[], &[]),
                Ok(()),
                "seed {seed} round {round}"
            );
            let (filter_arrays, ps_arrays) = key_arrays(&topo, ledger.free(), state);
            assert_eq!(
                rebuilds_agree(&index.ps, &ps_arrays),
                Ok(()),
                "seed {seed} round {round}"
            );
            assert_eq!(
                rebuilds_agree(&index.filter, &filter_arrays),
                Ok(()),
                "seed {seed} round {round}"
            );
            match stats.rebuilds {
                0 => {
                    paths[0] += 1;
                    let ps = class_paths(&before.ps, &index.ps);
                    let filter = class_paths(&before.filter, &index.filter);
                    assert_eq!(
                        stats.renamed,
                        (ps[0] + filter[0]) as u64,
                        "seed {seed} round {round}"
                    );
                    for (path, (p, f)) in ps.into_iter().zip(filter).enumerate() {
                        paths[3 + path] += usize::from(p + f > 0);
                    }
                    let (slices, moved) = slice_paths(&topo, state, &before.ps, &index.ps);
                    assert_eq!(stats.slices, moved, "seed {seed} round {round}");
                    for (path, pairs) in slices.into_iter().enumerate() {
                        paths[7 + path] += usize::from(pairs > 0);
                    }
                }
                _ if bloated => paths[2] += 1,
                _ => paths[1] += 1,
            }
            let demand = 1 + rng.below(3 * gps);
            let mut full = CandidateFilter::new(gps, demand, gps, Some(16));
            for (s, &gpus_free) in ledger.free().iter().enumerate() {
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
            assert_eq!(
                fed.candidates(),
                full.candidates(),
                "seed {seed} round {round}"
            );
            assert!(fed.offered() <= full.offered());
            for gpus in 1..=gps + 1 {
                assert_eq!(
                    index.tightest_fit(gpus),
                    ledger.scan_tightest_fit(state.servers_available_gbps(), gpus),
                    "seed {seed} round {round}: {gpus} GPUs"
                );
            }
        }
        paths
    }

    /// Names of [`churn`]'s paths, in its order.
    const PATHS: [&str; 11] = [
        "update",
        "fallback",
        "reclaim",
        "rename",
        "blocked",
        "split",
        "partial",
        "rack rename",
        "slice into a held class",
        "slice into a new class",
        "class across racks",
    ];

    /// What one incremental update did to each live class of `before`,
    /// read from class ids and keys alone: `[renamed, blocked, split,
    /// partial]` class counts. Its key changed under the same class id:
    /// renamed, by the update or by a stale rack, once (a class the update
    /// renamed holds its live key, and a class a stale rack renames lies in
    /// that rack alone). Of the others, every member moved to one key under
    /// another class id: a rename blocked, because another class held the
    /// key, or a whole run merged into another class. Moved servers split
    /// across two keys or more: split. Some members moved, to one key, and
    /// the rest stayed: partial.
    fn class_paths<K: ClassKey>(before: &Partition<K>, after: &Partition<K>) -> [usize; 4] {
        let mut paths = [0; 4];
        for (class, members) in before.members.iter().enumerate() {
            let old = before.keys[class];
            if after.keys[class] != old {
                paths[0] += 1;
                continue;
            }
            let moved: Vec<usize> = members
                .iter()
                .map(|&s| s as usize)
                .filter(|&s| *after.key_of(s) != old)
                .collect();
            let Some(&first) = moved.first() else {
                continue;
            };
            let key = *after.key_of(first);
            let path = if moved.iter().any(|&s| *after.key_of(s) != key) {
                2
            } else if moved.len() < members.len() {
                3
            } else {
                1
            };
            paths[path] += 1;
        }
        paths
    }

    /// What the stale racks of one incremental update did to the PS
    /// partition, a (class of `before`, rack) pair at a time. A rack is
    /// stale if its live uplink flow count is not the one `before` filed
    /// it under; the pair's run is the class's members in the rack whose
    /// key changed in that count alone (the update moved the others, whose
    /// flows or bandwidth moved). Returns `[renamed, into a held class,
    /// into a new class, class across racks]` pair counts — the run is
    /// the class, renamed in place; the run joined a class that existed
    /// before the refresh; one that did not; the class has members in
    /// more than one rack — and the runs that left their class. Each run
    /// must end in one class.
    fn slice_paths(
        topo: &FlatTopology,
        state: &SteadyState,
        before: &Partition<PsKey>,
        after: &Partition<PsKey>,
    ) -> ([usize; 4], u64) {
        let (mut paths, mut moved) = ([0; 4], 0);
        for (rack, &fc_up) in state.rack_uplinks_flows().iter().enumerate() {
            let servers = topo.rack_server_range(rack);
            if before.key_of(servers.start).fc_up == fc_up {
                continue;
            }
            for (class, members) in before.members.iter().enumerate() {
                let refiled = PsKey {
                    fc_up,
                    ..before.keys[class]
                };
                let run: Vec<usize> = members
                    .iter()
                    .map(|&s| s as usize)
                    .filter(|s| servers.contains(s) && *after.key_of(*s) == refiled)
                    .collect();
                let Some(&first) = run.first() else {
                    continue;
                };
                let into = after.class_of[first];
                assert!(run.iter().all(|&s| after.class_of[s] == into));
                let path = match into as usize {
                    c if c == class => 0,
                    c if c < before.keys.len() => 1,
                    _ => 2,
                };
                paths[path] += 1;
                moved += u64::from(path > 0);
                let racks = |s: &u32| topo.rack_of(*s as usize);
                paths[3] += usize::from(members.iter().map(racks).any(|r| r != rack));
            }
        }
        (paths, moved)
    }

    impl<K: ClassKey> Partition<K> {
        /// The cold build as one probe-or-reuse and one `push_back` per
        /// server — the loop [`rebuild`](Partition::rebuild)'s run-length
        /// filing replaced, kept as its oracle.
        fn rebuild_literal(&mut self, n: usize, key_of: impl Fn(usize) -> K) {
            self.reset();
            self.class_of.resize(n, 0);
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

        /// Exchange the ids of classes `a` and `b`: keys, member lists,
        /// `class_of` entries and slots.
        fn swap_classes(&mut self, a: u32, b: u32) {
            self.keys.swap(a as usize, b as usize);
            self.members.swap(a as usize, b as usize);
            for class in &mut self.class_of {
                if *class == a {
                    *class = b;
                } else if *class == b {
                    *class = a;
                }
            }
            self.slots.fill(0);
            for class in 0..self.keys.len() as u32 {
                self.slot_in(class);
            }
        }
    }

    /// Rebuild two copies of `p` over `arrays`, by runs and by the literal
    /// loop: `Err` naming the first field in which they differ, or the
    /// first maximal run of equal keys whose end the finder, asked from
    /// the run's second server or from past its head, misses (a finder
    /// that ends a run early files the same classes, one run at a time).
    fn rebuilds_agree<K: ClassKey>(
        p: &Partition<K>,
        arrays: &impl KeyArrays<K>,
    ) -> Result<(), String> {
        for run in runs_of(arrays) {
            let key = arrays.key(run.start);
            for from in [run.start + 1, run.start + HEAD]
                .into_iter()
                .filter(|&s| s < run.end)
            {
                let end = arrays.run_end(from, &key);
                if end != run.end {
                    return Err(format!("run {run:?} of {key:?} ended at {end} from {from}"));
                }
            }
        }
        let (mut runs, mut literal) = (p.clone(), p.clone());
        runs.rebuild(arrays);
        literal.rebuild_literal(arrays.len(), |s| arrays.key(s));
        if runs.keys != literal.keys {
            return Err(format!("keys {:?} != {:?}", runs.keys, literal.keys));
        }
        if runs.members != literal.members {
            return Err(format!(
                "members {:?} != {:?}",
                runs.members, literal.members
            ));
        }
        if runs.class_of != literal.class_of {
            return Err(format!(
                "class_of {:?} != {:?}",
                runs.class_of, literal.class_of
            ));
        }
        if runs.slots != literal.slots || (runs.dead, literal.dead) != (0, 0) {
            return Err(format!(
                "slots or dead counts differ ({} / {})",
                runs.dead, literal.dead
            ));
        }
        Ok(())
    }

    /// Seeded key arrays for [`rebuild_by_runs_files_what_the_literal_loop_files`]:
    /// runs of equal `(free, flows, avail)` whose lengths are 1–6, one of
    /// 15/16/17/31/32/33/47/48/49, or 50–80 (more than three finder chunks
    /// past the head). A run of no free GPU draws every server's flows and
    /// bandwidth apart. Racks are 1–40 servers wide, and a rack's uplink
    /// flows and capacity repeat its predecessor's two times in three.
    struct RunCase {
        gpus_free: Vec<u32>,
        flows: Vec<u32>,
        avail: Vec<f64>,
        server_rack: Vec<u32>,
        rack_start: Vec<u32>,
        rack_fc: Vec<u32>,
        rack_up: Vec<f64>,
    }

    impl RunCase {
        fn new(rng: &mut Rng) -> Self {
            const EDGES: [usize; 9] = [15, 16, 17, 31, 32, 33, 47, 48, 49];
            let target = rng.below(300);
            let (mut gpus_free, mut flows, mut avail) = (Vec::new(), Vec::new(), Vec::new());
            while gpus_free.len() < target {
                let len = match rng.below(3) {
                    0 => 1 + rng.below(6),
                    1 => EDGES[rng.below(EDGES.len())],
                    _ => 50 + rng.below(31),
                };
                let (free, f, a) = (
                    rng.below(3) as u32,
                    rng.below(2) as u32,
                    rng.below(2) as f64 * 25.0,
                );
                for _ in 0..len {
                    gpus_free.push(free);
                    let full = free == 0;
                    flows.push(if full { rng.below(2) as u32 } else { f });
                    avail.push(if full { rng.below(2) as f64 * 25.0 } else { a });
                }
            }
            let n = gpus_free.len();
            let (mut server_rack, mut rack_start, mut rack_fc, mut rack_up) =
                (vec![], vec![], vec![], vec![]);
            while server_rack.len() < n {
                let width = (1 + rng.below(40)).min(n - server_rack.len());
                rack_start.push(server_rack.len() as u32);
                let (fc, up) = match rack_fc.last() {
                    Some(&fc) if rng.below(3) > 0 => (fc, rack_up[rack_up.len() - 1]),
                    _ => (rng.below(2) as u32, 100.0 * (1 + rng.below(2)) as f64),
                };
                rack_fc.push(fc);
                rack_up.push(up);
                server_rack.extend(std::iter::repeat_n(rack_start.len() as u32 - 1, width));
            }
            rack_start.push(n as u32);
            RunCase {
                gpus_free,
                flows,
                avail,
                server_rack,
                rack_start,
                rack_fc,
                rack_up,
            }
        }

        fn arrays(&self) -> (FilterArrays<'_>, PsArrays<'_>) {
            let filter = FilterArrays {
                gpus_free: &self.gpus_free,
                flows: &self.flows,
                avail: &self.avail,
            };
            let ps = PsArrays {
                flows: &self.flows,
                avail: &self.avail,
                server_rack: &self.server_rack,
                rack_start: &self.rack_start,
                rack_fc: &self.rack_fc,
                rack_up: &self.rack_up,
            };
            (filter, ps)
        }
    }

    /// The maximal runs of equal keys in `arrays`, as `start..end`.
    fn runs_of<K: ClassKey>(arrays: &impl KeyArrays<K>) -> Vec<Range<usize>> {
        let mut runs: Vec<Range<usize>> = Vec::new();
        for s in 0..arrays.len() {
            match runs.last_mut() {
                Some(run) if arrays.key(run.start) == arrays.key(s) => run.end = s + 1,
                _ => runs.push(s..s + 1),
            }
        }
        runs
    }

    /// The run-length cold build, with the production finders ending every
    /// run past its head, files exactly what the per-server loop does — the
    /// same keys in first-seen order, the same member lists, the same
    /// `class_of`, the same probe table and no dead class — in both
    /// partitions: on seeded arrays ([`RunCase`]; a key recurring after
    /// other runs reuses its class), and on the live arrays after every
    /// refresh of the two churn fixtures (`churn` holds them to it). The
    /// audit cannot stand in for it: its cold build calls the same routine.
    /// The cases reached are asserted: runs of 1 server and of more than
    /// three chunks past the head; runs ending at 15/16/17 and 31/32/33
    /// servers; a full-server run past its head whose flows or bandwidth
    /// change inside it; a PS run that crosses, past its head, into a rack
    /// of equal `(fc_up, uplink bits)`; and PS runs ended at a rack
    /// boundary past their head by a rack of other `fc_up`, and of other
    /// uplink bits, only.
    ///
    /// Mutations that each fail it: the last run dropped, a run's end one
    /// server off, `class_of` left unfilled; a filter finder that ignores
    /// the avail bits, a PS finder that crosses into a rack whose `fc_up`
    /// differs, a chunk edge off by one (`s..s + HEAD - 1` folded), and a
    /// full-server run cut where the flows change.
    #[test]
    fn rebuild_by_runs_files_what_the_literal_loop_files() {
        let mut rng = Rng(0xC01D_5EED);
        // [length 1, > head + 3 chunks, ends at 15, 16, 17, 31, 32, 33,
        // full run varying past its head, PS run across equal racks, PS run
        // cut by fc_up, PS run cut by uplink bits]
        let mut seen = [0usize; 12];
        for case in 0..600 {
            let fixture = RunCase::new(&mut rng);
            let (filter, ps) = fixture.arrays();
            // Start from partitions that have held classes before, as a
            // fallback rebuild does.
            let mut p = Partition::new();
            p.rebuild_literal(fixture.gpus_free.len() / 2, |s| FilterKey {
                free: s as u32,
                flows: 1,
                avail_bits: 0,
            });
            assert_eq!(rebuilds_agree(&p, &filter), Ok(()), "case {case}: filter");
            let mut q = Partition::new();
            q.rebuild_literal(fixture.gpus_free.len() / 3, |s| ps.key(s / 2));
            assert_eq!(rebuilds_agree(&q, &ps), Ok(()), "case {case}: PS");

            for run in runs_of(&filter) {
                seen[0] += usize::from(run.len() == 1);
                seen[1] += usize::from(run.len() > HEAD * 4);
                if let Some(i) = [15, 16, 17, 31, 32, 33]
                    .iter()
                    .position(|&l| l == run.len())
                {
                    seen[2 + i] += 1;
                }
                let varies = |t: usize| {
                    (fixture.flows[t], fixture.avail[t])
                        != (fixture.flows[run.start], fixture.avail[run.start])
                };
                seen[8] += usize::from(
                    filter.key(run.start) == FilterKey::FULL
                        && (run.start + HEAD..run.end).any(varies),
                );
            }
            for run in runs_of(&ps) {
                let past_head = run.start + HEAD;
                let rack = |s: usize| fixture.server_rack[s] as usize;
                seen[9] += usize::from((past_head + 1..run.end).any(|s| rack(s) != rack(s - 1)));
                if run.end < ps.len() && run.end > past_head && rack(run.end) != rack(run.end - 1) {
                    let (a, b) = (rack(run.end - 1), rack(run.end));
                    let same_server = (fixture.flows[run.end], fixture.avail[run.end])
                        == (fixture.flows[run.start], fixture.avail[run.start]);
                    let fc = fixture.rack_fc[a] != fixture.rack_fc[b];
                    let up = fixture.rack_up[a] != fixture.rack_up[b];
                    seen[10] += usize::from(same_server && fc && !up);
                    seen[11] += usize::from(same_server && up && !fc);
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 10), "{seen:?}");
    }

    /// Every refresh path must have been taken more than 20 times across
    /// the seeds; the counts print with `--nocapture`. Five small
    /// mutations of the rename path each fail the audit in both fixtures:
    /// a rename allowed with one member staying behind, a rename onto a
    /// key another class holds, a slot zeroed without the backward shift,
    /// a renamed key filed past the slot the delete emptied, and a server
    /// named twice counted twice.
    fn churn_seeds(cluster: &Cluster, seeds: std::ops::Range<u64>) {
        let mut paths = [0; PATHS.len()];
        for seed in seeds {
            let ran = churn(cluster, seed, 80);
            paths.iter_mut().zip(ran).for_each(|(total, r)| *total += r);
        }
        let counts: Vec<String> = PATHS
            .iter()
            .zip(paths)
            .map(|(name, p)| format!("{name} {p}"))
            .collect();
        println!("refreshes per path: {}", counts.join(", "));
        assert!(paths.iter().all(|&p| p > 20), "{counts:?}");
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
        churn_seeds(&cluster, 1..25);
    }

    #[test]
    fn index_equals_scan_under_churn_on_wide_racks() {
        let cluster = Cluster::new(ClusterSpec {
            racks: 16,
            servers_per_rack: 40,
            gpus_per_server: 8,
            ..ClusterSpec::paper_default()
        });
        churn_seeds(&cluster, 11..81);
    }

    /// [`merge_into`] leaves the ascending union of the run and the list,
    /// whichever end it drains: runs before, after, inside and interleaved
    /// with the list, lists empty and lists whose deque has wrapped.
    #[test]
    fn merge_into_keeps_a_member_list_ascending() {
        let mut rng = Rng(0x5_11CE);
        let mut side = Vec::new();
        for case in 0..3_000 {
            let (mut run, mut rest) = (Vec::new(), Vec::new());
            let split = rng.below(4);
            for id in 0..rng.below(60) as u32 {
                match rng.below(3) {
                    0 => {}
                    1 if split == 0 || (split == 1) == (id < 30) => run.push(id),
                    _ => rest.push(id),
                }
            }
            // Half the lists are built from the front, so their storage
            // wraps around the deque's buffer.
            let mut dst = VecDeque::with_capacity(rest.len() + 1);
            if rng.below(2) == 0 {
                dst.extend(&rest);
            } else {
                rest.iter().rev().for_each(|&m| dst.push_front(m));
            }
            merge_into(&mut dst, &run, &mut side);
            let mut want = [run, rest].concat();
            want.sort_unstable();
            assert!(dst.iter().eq(&want), "case {case}");
        }
    }

    /// The strict audit must see what a full diff would have healed: a
    /// ledger write or an estimator push the journals did not carry.
    #[test]
    fn audit_catches_a_missed_journal_entry() {
        // Big enough that the one job stays far below the rebuild
        // threshold: a rebuild would re-read every server.
        let cluster = Cluster::new(ClusterSpec {
            racks: 32,
            servers_per_rack: 8,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        });
        let topo = FlatTopology::new(&cluster);
        let mut ledger = GpuLedger::new(&cluster);
        let mut inc = IncrementalEstimator::new(&cluster, &[]);
        let mut index = ServerIndex::new();
        index.refresh(&topo, ledger.free(), inc.state(), &[], &[]);
        ledger.set_free(3, 1);
        let p = Placement::new(vec![(ServerId(0), 2), (ServerId(5), 2)], Some(ServerId(9)));
        inc.push(&cluster, PlacedJob::new(JobId(0), &cluster, &p));
        let audit = |index: &ServerIndex, servers: &[u32], links: &[u32]| {
            index.audit(&topo, ledger.free(), inc.state(), servers, links)
        };
        assert_eq!(audit(&index, ledger.journal(), inc.journal()), Ok(()));
        assert!(
            audit(&index, &[], inc.journal()).is_err(),
            "server 3's write went unreported"
        );
        assert!(
            audit(&index, ledger.journal(), &[]).is_err(),
            "the push went unreported"
        );
        let mut partial = index.clone();
        partial.refresh(
            &topo,
            ledger.free(),
            inc.state(),
            ledger.journal(),
            &inc.journal()[1..],
        );
        assert!(
            audit(&partial, &[], &[]).is_err(),
            "one link went unreported"
        );
        index.refresh(
            &topo,
            ledger.free(),
            inc.state(),
            ledger.journal(),
            inc.journal(),
        );
        assert_eq!(audit(&index, &[], &[]), Ok(()));
        ledger.clear_journal();
        inc.clear_journal();

        // The job finishes between two passes. Its links are nobody
        // else's, so no solve names them: only the staged removal's own
        // pending nodes can carry them into the journal.
        assert!(inc.stage_remove_at(0, JobId(0)));
        assert!(inc.journal().is_empty(), "a staged op journals nothing");
        inc.settle(&cluster);
        let audit = |links: &[u32]| index.audit(&topo, ledger.free(), inc.state(), &[], links);
        assert_eq!(audit(inc.journal()), Ok(()));
        assert!(audit(&[]).is_err(), "the removal went unreported");
        let mut freed = inc.journal().to_vec();
        freed.sort_unstable();
        // Three access links and, the PS sitting in rack 1, two uplinks.
        assert_eq!(freed, [0, 5, 9, 256, 257]);
    }

    /// A full server is filed under the one full key, so when its access
    /// link changes — it hosts a PS — while it stays at 0 free GPUs, the
    /// filter partition has nothing to move, and the PS partition must
    /// re-key it all the same: on the way in and on the way out.
    #[test]
    fn a_full_server_whose_link_changes_moves_in_the_ps_partition_only() {
        let cluster = Cluster::new(ClusterSpec {
            racks: 32,
            servers_per_rack: 8,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        });
        let topo = FlatTopology::new(&cluster);
        let mut ledger = GpuLedger::new(&cluster);
        let mut inc = IncrementalEstimator::new(&cluster, &[]);
        let mut index = ServerIndex::new();
        ledger.set_free(9, 0);
        index.refresh(&topo, ledger.free(), inc.state(), &[], &[]);
        ledger.clear_journal();
        let full_class = index.filter.class_of[9];
        assert_eq!(*index.filter.key_of(9), FilterKey::FULL);
        let refresh =
            |index: &mut ServerIndex, ledger: &mut GpuLedger, inc: &mut IncrementalEstimator| {
                let stats = index.refresh(
                    &topo,
                    ledger.free(),
                    inc.state(),
                    ledger.journal(),
                    inc.journal(),
                );
                assert_eq!(
                    index.audit(&topo, ledger.free(), inc.state(), &[], &[]),
                    Ok(())
                );
                ledger.clear_journal();
                inc.clear_journal();
                stats
            };
        // Workers on servers 8 and 10, PS on the full server 9: one rack,
        // so no uplink re-keys a rack wholesale.
        let p = Placement::new(vec![(ServerId(8), 2), (ServerId(10), 2)], Some(ServerId(9)));
        for &(s, w) in p.workers() {
            ledger.set_free(s.0, ledger.free()[s.0] - w as u32);
        }
        inc.push(&cluster, PlacedJob::new(JobId(0), &cluster, &p));
        assert!(
            inc.state().servers_flows()[9] > 0,
            "the PS link must carry the job"
        );
        let stats = refresh(&mut index, &mut ledger, &mut inc);
        // Servers 8 and 10 move in both partitions, server 9 in the PS one.
        assert_eq!((stats.rebuilds, stats.rekeyed), (0, 5));
        assert_eq!(index.filter.class_of[9], full_class);
        assert_eq!(index.ps.key_of(9).flows, inc.state().servers_flows()[9]);

        assert!(inc.remove(&cluster, JobId(0)));
        for &(s, w) in p.workers() {
            ledger.set_free(s.0, ledger.free()[s.0] + w as u32);
        }
        let stats = refresh(&mut index, &mut ledger, &mut inc);
        assert_eq!((stats.rebuilds, stats.rekeyed), (0, 5));
        assert_eq!(index.filter.class_of[9], full_class);
        assert_eq!(index.ps.key_of(9).flows, 0);
    }

    /// An estimator nobody drains (the flow simulator's) journals each link
    /// at most once, however long it runs.
    #[test]
    fn undrained_estimator_journal_is_bounded_by_the_link_count() {
        let cluster = Cluster::new(ClusterSpec {
            racks: 4,
            servers_per_rack: 4,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        });
        let n = cluster.num_servers();
        let mut rng = Rng(0x5EED);
        let mut inc = IncrementalEstimator::new(&cluster, &[]);
        for cycle in 0..10_000u64 {
            let (a, b) = (rng.below(n), rng.below(n - 1));
            let b = if b >= a { b + 1 } else { b };
            let p = Placement::new(vec![(ServerId(a), 1), (ServerId(b), 1)], Some(ServerId(a)));
            inc.push(&cluster, PlacedJob::new(JobId(cycle), &cluster, &p));
            // Keep a few jobs running so components merge and split.
            if cycle >= 3 {
                assert!(inc.remove(&cluster, JobId(cycle - 3)));
            }
            assert!(inc.journal().len() <= cluster.num_links(), "cycle {cycle}");
        }
        let mut seen = inc.journal().to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), inc.journal().len(), "a link journalled twice");
        inc.clear_journal();
        assert!(inc.journal().is_empty());
        inc.pop(&cluster);
        assert!(
            !inc.journal().is_empty(),
            "marks must clear with the journal"
        );
    }

    /// Classes that differ only in `flows` tie on both of the shortcut's
    /// criteria: the lowest front member across them must win, as the
    /// literal scan's "first wins" has it — whichever class comes first.
    /// Which ids a refresh hands the two classes is its own business (a
    /// rename keeps an old id), so the test checks both orders: as the
    /// refreshes left them, then with the two ids exchanged.
    #[test]
    fn shortcut_breaks_ties_across_flow_classes_toward_the_lowest_id() {
        let cluster = Cluster::new(ClusterSpec {
            racks: 2,
            servers_per_rack: 64,
            gpus_per_server: 4,
            pat_gbps: 0.0,
            ..ClusterSpec::paper_default()
        });
        let topo = FlatTopology::new(&cluster);
        let mut ledger = GpuLedger::new(&cluster);
        // Only the two PS hosts below will fit anything: the five workers
        // have the one GPU they are about to use, everyone else none.
        for s in (0..topo.num_servers()).filter(|&s| s != 2 && s != 5) {
            ledger.set_free(s, u32::from([6, 7, 9, 10, 11].contains(&s)));
        }
        let mut inc = IncrementalEstimator::new(&cluster, &[]);
        let mut index = ServerIndex::new();
        let refresh =
            |index: &mut ServerIndex, ledger: &mut GpuLedger, inc: &mut IncrementalEstimator| {
                index.refresh(
                    &topo,
                    ledger.free(),
                    inc.state(),
                    ledger.journal(),
                    inc.journal(),
                );
                ledger.clear_journal();
                inc.clear_journal();
            };
        refresh(&mut index, &mut ledger, &mut inc);
        // No aggregation, so a PS's access link carries one flow per worker
        // server and is the bottleneck: it ends saturated — residual zero —
        // whatever the count. Server 5 serves two worker servers, server 2
        // three; both keep all their GPUs.
        let jobs = [
            Placement::new(vec![(ServerId(6), 1), (ServerId(7), 1)], Some(ServerId(5))),
            Placement::new(
                vec![(ServerId(9), 1), (ServerId(10), 1), (ServerId(11), 1)],
                Some(ServerId(2)),
            ),
        ];
        for (i, p) in jobs.iter().enumerate() {
            for &(s, w) in p.workers() {
                ledger.set_free(s.0, ledger.free()[s.0] - w as u32);
            }
            inc.push(&cluster, PlacedJob::new(JobId(i as u64), &cluster, p));
            refresh(&mut index, &mut ledger, &mut inc);
        }
        let state = inc.state();
        let (avail, flows) = (state.servers_available_gbps(), state.servers_flows());
        assert_eq!(
            avail[2].to_bits(),
            avail[5].to_bits(),
            "the fixture must tie on bandwidth"
        );
        assert_ne!(
            flows[2], flows[5],
            "the fixture must split the tie into two classes"
        );
        let (two, five) = (index.filter.class_of[2], index.filter.class_of[5]);
        for swapped in [false, true] {
            if swapped {
                index.filter.swap_classes(two, five);
            }
            assert_eq!(
                index.audit(&topo, ledger.free(), state, &[], &[]),
                Ok(()),
                "swapped: {swapped}"
            );
            for gpus in 1..=5 {
                let want = ledger.scan_tightest_fit(avail, gpus);
                assert_eq!(
                    index.tightest_fit(gpus),
                    want,
                    "{gpus} GPUs, swapped: {swapped}"
                );
            }
            assert_eq!(index.tightest_fit(4), Some(2));
            assert_eq!(index.tightest_fit(5), None);
        }
    }
}
