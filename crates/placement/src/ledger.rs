//! The flat placement path's free-GPU ledger.
//!
//! [`GpuLedger`] owns the per-server free-GPU counts and everything derived
//! from them in step: the free-GPU histogram and the journal of servers
//! whose count changed. Its fields are private to this module and
//! [`set_free`](GpuLedger::set_free) is the only mutator, so no commit or
//! credit can move a count without the
//! [`ServerIndex`](crate::index::ServerIndex) hearing of it
//! (`DESIGN.md` §3.11). Inside a [`NetPackSession`](crate::NetPackSession)
//! it is the only book of GPUs there is; [`audit`](GpuLedger::audit)
//! recounts it from the running placements.

use netpack_model::Placement;
use netpack_topology::Cluster;

/// Free GPUs per server, the histogram over them, and the change journal.
#[derive(Debug, Clone, Default)]
pub(crate) struct GpuLedger {
    free: Vec<u32>,
    /// `with_free[w]` = servers with exactly `w` free GPUs; answers "can
    /// any server hold this job whole" without a scan.
    with_free: Vec<u32>,
    /// Servers written since the last [`clear_journal`](Self::clear_journal),
    /// repeats included. Bounded by the cluster's GPU count: the placement
    /// path clears it at every job, and what completions add in between
    /// was committed — and cleared — before.
    journal: Vec<u32>,
}

impl GpuLedger {
    /// Mirror `cluster`'s current allocation into this ledger's arrays,
    /// forgetting everything it held, journal included: two slice copies,
    /// since the cluster keeps the same array and histogram.
    pub(crate) fn reset(&mut self, cluster: &Cluster) {
        self.free.clear();
        self.free.extend_from_slice(cluster.free_gpus_per_server());
        self.with_free.clear();
        self.with_free
            .extend_from_slice(cluster.servers_with_free_gpus());
        self.journal.clear();
    }

    /// Free GPUs per server, indexed by server id.
    pub(crate) fn free(&self) -> &[u32] {
        &self.free
    }

    /// Set `server`'s free-GPU count — the ledger's only write.
    pub(crate) fn set_free(&mut self, server: usize, free: u32) {
        self.with_free[self.free[server] as usize] -= 1;
        self.with_free[free as usize] += 1;
        self.free[server] = free;
        self.journal.push(server as u32);
    }

    /// Free GPUs over all servers, read off the histogram.
    pub(crate) fn total_free(&self) -> usize {
        self.with_free
            .iter()
            .enumerate()
            .map(|(w, &servers)| w * servers as usize)
            .sum()
    }

    /// Whether some server has at least `gpus` GPUs free.
    pub(crate) fn any_server_fits(&self, gpus: usize) -> bool {
        self.with_free.iter().skip(gpus).any(|&count| count > 0)
    }

    /// Servers written since the last [`clear_journal`](Self::clear_journal).
    pub(crate) fn journal(&self) -> &[u32] {
        &self.journal
    }

    /// Forget the journalled servers: the index has caught up with them.
    pub(crate) fn clear_journal(&mut self) {
        self.journal.clear();
    }

    /// Oracle for the books themselves: with exactly `held` placed on top
    /// of the allocation `cluster` was mirrored with, every server's free
    /// count is the cluster's minus the workers on it, the histogram is a
    /// recount of those, and the free total is the cluster's minus the
    /// held GPUs.
    pub(crate) fn audit<'a>(
        &self,
        cluster: &Cluster,
        held: impl Iterator<Item = &'a Placement>,
    ) -> Result<(), String> {
        let mut free: Vec<i64> = cluster
            .free_gpus_per_server()
            .iter()
            .map(|&f| i64::from(f))
            .collect();
        for &(s, w) in held.flat_map(|p| p.workers()) {
            free[s.0] -= w as i64;
        }
        let mut with_free = vec![0u32; self.with_free.len()];
        for (s, &f) in free.iter().enumerate() {
            if f != i64::from(self.free[s]) {
                return Err(format!(
                    "server {s}: {} free on the ledger, {f} on recount",
                    self.free[s]
                ));
            }
            with_free[f as usize] += 1;
        }
        let total: i64 = free.iter().sum();
        if with_free != self.with_free || total != self.total_free() as i64 {
            return Err(format!(
                "histogram {:?} != recount {with_free:?} ({total} free)",
                self.with_free
            ));
        }
        Ok(())
    }

    /// Oracle for the single-server shortcut: Algorithm 2's literal scan of
    /// every server for the tightest fit, ties toward the most residual
    /// bandwidth (`avail`, by server id), first wins — the reference's
    /// `min_by`. Production answers from the index
    /// ([`ServerIndex::tightest_fit`](crate::index::ServerIndex::tightest_fit))
    /// and asserts this in debug builds.
    pub(crate) fn scan_tightest_fit(&self, avail: &[f64], gpus: usize) -> Option<usize> {
        let mut best: Option<(usize, f64, usize)> = None;
        for (s, &free) in self.free.iter().enumerate() {
            let Some(d) = (free as usize).checked_sub(gpus) else {
                continue;
            };
            let wins = match best {
                None => true,
                Some((bd, bavail, _)) => d < bd || (d == bd && avail[s].total_cmp(&bavail).is_gt()),
            };
            if wins {
                best = Some((d, avail[s], s));
            }
        }
        best.map(|(_, _, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_topology::{ClusterSpec, ServerId};
    use proptest::prelude::*;

    impl GpuLedger {
        /// A ledger mirroring `cluster`'s current allocation, nothing
        /// journalled: a default one [`reset`](GpuLedger::reset) to it.
        pub(crate) fn new(cluster: &Cluster) -> Self {
            let mut ledger = GpuLedger::default();
            ledger.reset(cluster);
            ledger
        }
    }

    /// The histogram, counted at construction, and the journal follow
    /// every write.
    #[test]
    fn histogram_and_journal_follow_set_free() {
        let c = Cluster::new(ClusterSpec {
            racks: 2,
            servers_per_rack: 2,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        });
        let recount = |l: &GpuLedger| {
            let mut hist = vec![0u32; 5];
            l.free.iter().for_each(|&f| hist[f as usize] += 1);
            hist
        };
        // Built over an allocation whose free counts run 0, 4, 2, 2.
        let mut held = c.clone();
        Placement::new(
            vec![(ServerId(0), 4), (ServerId(2), 2), (ServerId(3), 2)],
            Some(ServerId(0)),
        )
        .allocate_on(&mut held)
        .unwrap();
        let mirrored = GpuLedger::new(&held);
        assert_eq!(mirrored.free(), [0, 4, 2, 2]);
        assert_eq!(mirrored.with_free, recount(&mirrored));
        let mut ledger = GpuLedger::new(&c);
        assert!(ledger.any_server_fits(4) && !ledger.any_server_fits(5));
        assert!(ledger.journal().is_empty());
        for (s, f) in [(0, 0), (1, 3), (2, 2), (3, 1), (1, 0)] {
            ledger.set_free(s, f);
            assert_eq!(ledger.with_free, recount(&ledger));
            assert_eq!(
                ledger.total_free(),
                ledger.free.iter().sum::<u32>() as usize
            );
        }
        assert_eq!(ledger.free(), [0, 0, 2, 1]);
        assert!(ledger.any_server_fits(2) && !ledger.any_server_fits(3));
        assert_eq!(ledger.journal(), [0, 1, 2, 3, 1]);
        ledger.clear_journal();
        assert!(ledger.journal().is_empty());
        // Reset over another allocation, with a write journalled: the
        // arrays are the ones `new` builds there, and the journal is empty.
        ledger.set_free(2, 0);
        ledger.reset(&held);
        assert_eq!(ledger.free(), mirrored.free());
        assert_eq!(ledger.with_free, mirrored.with_free);
        assert!(ledger.journal().is_empty());
    }

    proptest! {
        /// `reset` copies the cluster's dense array and histogram: on a
        /// random cluster under a random allocation, over a ledger that
        /// mirrored another cluster and journalled a write, the arrays equal
        /// a recount over the cluster's server views.
        #[test]
        fn reset_mirrors_a_recount_over_the_views(
            shape in (1usize..6, 1usize..10, 1usize..9),
            allocs in proptest::collection::vec((0usize..64, 1usize..9), 0..48),
        ) {
            let (racks, servers_per_rack, gpus_per_server) = shape;
            let mut c = Cluster::new(ClusterSpec {
                racks,
                servers_per_rack,
                gpus_per_server,
                ..ClusterSpec::paper_default()
            });
            let mut ledger = GpuLedger::new(&Cluster::new(ClusterSpec::paper_testbed()));
            ledger.set_free(0, 1);
            for (s, w) in allocs {
                // Refused when the server holds fewer than `w`.
                let _ = c.allocate_gpus(ServerId(s % c.num_servers()), w);
            }
            ledger.reset(&c);
            let free: Vec<u32> = c.servers().map(|s| s.gpus_free() as u32).collect();
            let mut with_free = vec![0u32; gpus_per_server + 1];
            c.servers().for_each(|s| with_free[s.gpus_free()] += 1);
            prop_assert_eq!(ledger.free(), &free[..]);
            prop_assert_eq!(&ledger.with_free, &with_free);
            prop_assert_eq!(ledger.total_free(), c.free_gpus());
            prop_assert!(ledger.journal().is_empty());
            prop_assert_eq!(ledger.audit(&c, std::iter::empty()), Ok(()));
        }
    }
}
