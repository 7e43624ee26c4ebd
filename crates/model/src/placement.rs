//! Job placements: the decision every placer produces.

use netpack_topology::{Cluster, ServerId, TopologyError};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Where a job's workers and parameter server run.
///
/// A placement assigns `count` workers (one per GPU) to each listed server
/// and, for distributed jobs, one parameter server to `ps`. `ina_enabled`
/// records NetPack's *selective INA* decision (Algorithm 2, step 4): only
/// INA-enabled jobs contend for switch memory.
///
/// # Example
///
/// ```
/// use netpack_model::Placement;
/// use netpack_topology::ServerId;
///
/// let p = Placement::new(vec![(ServerId(0), 2), (ServerId(1), 2)], Some(ServerId(1)));
/// assert_eq!(p.total_workers(), 4);
/// assert!(!p.is_local());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    workers: Vec<(ServerId, usize)>,
    pses: Vec<ServerId>,
    ina_enabled: bool,
}

impl Placement {
    /// Build a placement from per-server worker counts and a PS location.
    /// INA starts enabled; [`Placement::set_ina_enabled`] can revoke it.
    ///
    /// Worker entries are merged per server and sorted; zero-count entries
    /// are dropped.
    pub fn new(workers: Vec<(ServerId, usize)>, ps: Option<ServerId>) -> Self {
        Self::new_sharded(workers, ps.into_iter().collect())
    }

    /// Build a placement whose gradient is sharded over several parameter
    /// servers (§4.1: "AllReduce with multiple PSes is composed of
    /// multiple one-PS AllReduces"). Each PS handles `1/k` of the model;
    /// every worker streams to every PS. Duplicate PS entries are merged.
    pub fn new_sharded(workers: Vec<(ServerId, usize)>, pses: Vec<ServerId>) -> Self {
        let mut merged: BTreeMap<ServerId, usize> = BTreeMap::new();
        for (s, w) in workers {
            if w > 0 {
                *merged.entry(s).or_insert(0) += w;
            }
        }
        let mut pses = pses;
        pses.sort_unstable();
        pses.dedup();
        Placement {
            workers: merged.into_iter().collect(),
            pses,
            ina_enabled: true,
        }
    }

    /// Convenience constructor for a job fully contained in one server
    /// (no PS, no network traffic).
    pub fn local(server: ServerId, workers: usize) -> Self {
        Placement::new(vec![(server, workers)], None)
    }

    /// Per-server worker counts, sorted by server id.
    pub fn workers(&self) -> &[(ServerId, usize)] {
        &self.workers
    }

    /// The (first) parameter-server location, if the job has one.
    pub fn ps(&self) -> Option<ServerId> {
        self.pses.first().copied()
    }

    /// All parameter servers of a sharded placement, sorted (empty for
    /// jobs without a PS).
    pub fn pses(&self) -> &[ServerId] {
        &self.pses
    }

    /// Number of gradient shards (= number of PSes, at least 1 for
    /// accounting purposes even when the job has no PS).
    pub fn shards(&self) -> usize {
        self.pses.len().max(1)
    }

    /// Whether NetPack enabled INA for this job.
    pub fn ina_enabled(&self) -> bool {
        self.ina_enabled
    }

    /// Enable or disable INA for this job (Algorithm 2, step 4).
    pub fn set_ina_enabled(&mut self, enabled: bool) {
        self.ina_enabled = enabled;
    }

    /// Total workers across all servers.
    pub fn total_workers(&self) -> usize {
        self.workers.iter().map(|&(_, w)| w).sum()
    }

    /// Number of distinct servers hosting workers.
    pub fn num_servers(&self) -> usize {
        self.workers.len()
    }

    /// Whether the job runs entirely inside one server and therefore
    /// generates no network traffic (Algorithm 2 lines 4-6).
    pub fn is_local(&self) -> bool {
        match self.workers.len() {
            0 => true,
            1 => self.pses.iter().all(|&ps| ps == self.workers[0].0),
            _ => false,
        }
    }

    /// Check this placement against a cluster and the job's GPU demand.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule: unknown servers, worker-count
    /// mismatch against `required_gpus`, a missing PS for a multi-server
    /// job (Table 3, constraint 6), or per-server GPU over-commitment
    /// relative to the cluster's *free* GPUs.
    pub fn validate(&self, cluster: &Cluster, required_gpus: usize) -> Result<(), PlacementError> {
        for &(s, w) in &self.workers {
            let server = cluster.server(s).ok_or(PlacementError::UnknownServer(s))?;
            if w > server.gpus_free() {
                return Err(PlacementError::GpuOverCommit {
                    server: s,
                    requested: w,
                    available: server.gpus_free(),
                });
            }
        }
        for &ps in &self.pses {
            if cluster.server(ps).is_none() {
                return Err(PlacementError::UnknownServer(ps));
            }
        }
        if self.total_workers() != required_gpus {
            return Err(PlacementError::WorkerCountMismatch {
                placed: self.total_workers(),
                required: required_gpus,
            });
        }
        if self.workers.len() > 1 && self.pses.is_empty() {
            return Err(PlacementError::MissingPs);
        }
        Ok(())
    }

    /// Allocate every worker's GPUs on the cluster ledger, all or nothing.
    ///
    /// # Errors
    ///
    /// The first refusal of [`Cluster::allocate_gpus`]; the workers
    /// allocated before it are released again, so the ledger is unchanged.
    pub fn allocate_on(&self, cluster: &mut Cluster) -> Result<(), TopologyError> {
        for (i, &(s, w)) in self.workers.iter().enumerate() {
            if let Err(e) = cluster.allocate_gpus(s, w) {
                for &(s2, w2) in &self.workers[..i] {
                    // Releasing what this loop just allocated cannot fail.
                    let _ = cluster.release_gpus(s2, w2);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Release every worker's GPUs on the cluster ledger, all or nothing —
    /// the inverse of [`allocate_on`](Self::allocate_on).
    ///
    /// # Errors
    ///
    /// The first refusal of [`Cluster::release_gpus`]; the workers released
    /// before it are re-allocated, so the ledger is unchanged.
    pub fn release_on(&self, cluster: &mut Cluster) -> Result<(), TopologyError> {
        for (i, &(s, w)) in self.workers.iter().enumerate() {
            if let Err(e) = cluster.release_gpus(s, w) {
                for &(s2, w2) in &self.workers[..i] {
                    // Re-allocating what this loop just released cannot fail.
                    let _ = cluster.allocate_gpus(s2, w2);
                }
                return Err(e);
            }
        }
        Ok(())
    }
}

/// Errors raised by [`Placement::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlacementError {
    /// A referenced server does not exist.
    UnknownServer(ServerId),
    /// The placement's total workers differ from the job's GPU demand.
    WorkerCountMismatch {
        /// Workers in the placement.
        placed: usize,
        /// The job's demand.
        required: usize,
    },
    /// A server was assigned more workers than it has free GPUs.
    GpuOverCommit {
        /// The over-committed server.
        server: ServerId,
        /// Workers assigned.
        requested: usize,
        /// Free GPUs available.
        available: usize,
    },
    /// A multi-server job has no parameter server (Table 3, Eq. 6).
    MissingPs,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::UnknownServer(s) => write!(f, "unknown server {s}"),
            PlacementError::WorkerCountMismatch { placed, required } => {
                write!(f, "placement has {placed} workers, job requires {required}")
            }
            PlacementError::GpuOverCommit {
                server,
                requested,
                available,
            } => write!(
                f,
                "server {server} has {available} free GPUs, {requested} workers assigned"
            ),
            PlacementError::MissingPs => write!(f, "multi-server job placed without a PS"),
        }
    }
}

impl Error for PlacementError {}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_topology::ClusterSpec;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 2,
            servers_per_rack: 2,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        })
    }

    #[test]
    fn new_merges_and_sorts_worker_entries() {
        let p = Placement::new(
            vec![
                (ServerId(2), 1),
                (ServerId(0), 2),
                (ServerId(2), 1),
                (ServerId(1), 0),
            ],
            None,
        );
        assert_eq!(p.workers(), &[(ServerId(0), 2), (ServerId(2), 2)]);
        assert_eq!(p.total_workers(), 4);
        assert_eq!(p.num_servers(), 2);
    }

    #[test]
    fn local_placements_are_detected() {
        assert!(Placement::local(ServerId(0), 4).is_local());
        let colocated_ps = Placement::new(vec![(ServerId(0), 4)], Some(ServerId(0)));
        assert!(colocated_ps.is_local());
        let remote_ps = Placement::new(vec![(ServerId(0), 4)], Some(ServerId(1)));
        assert!(!remote_ps.is_local());
        let spanning = Placement::new(vec![(ServerId(0), 2), (ServerId(1), 2)], Some(ServerId(0)));
        assert!(!spanning.is_local());
    }

    #[test]
    fn validate_accepts_a_correct_placement() {
        let c = cluster();
        let p = Placement::new(vec![(ServerId(0), 4), (ServerId(1), 4)], Some(ServerId(2)));
        p.validate(&c, 8).unwrap();
    }

    #[test]
    fn validate_rejects_worker_count_mismatch() {
        let c = cluster();
        let p = Placement::new(vec![(ServerId(0), 4)], None);
        assert_eq!(
            p.validate(&c, 6),
            Err(PlacementError::WorkerCountMismatch {
                placed: 4,
                required: 6
            })
        );
    }

    #[test]
    fn validate_rejects_missing_ps() {
        let c = cluster();
        let p = Placement::new(vec![(ServerId(0), 2), (ServerId(1), 2)], None);
        assert_eq!(p.validate(&c, 4), Err(PlacementError::MissingPs));
    }

    #[test]
    fn validate_rejects_over_commit() {
        let mut c = cluster();
        c.allocate_gpus(ServerId(0), 2).unwrap();
        let p = Placement::new(vec![(ServerId(0), 3)], None);
        assert_eq!(
            p.validate(&c, 3),
            Err(PlacementError::GpuOverCommit {
                server: ServerId(0),
                requested: 3,
                available: 2
            })
        );
    }

    #[test]
    fn validate_rejects_unknown_servers() {
        let c = cluster();
        let p = Placement::new(vec![(ServerId(99), 1)], None);
        assert_eq!(
            p.validate(&c, 1),
            Err(PlacementError::UnknownServer(ServerId(99)))
        );
        let p = Placement::new(vec![(ServerId(0), 1)], Some(ServerId(77)));
        assert_eq!(
            p.validate(&c, 1),
            Err(PlacementError::UnknownServer(ServerId(77)))
        );
    }

    #[test]
    fn ledger_moves_are_all_or_nothing() {
        let mut c = cluster();
        let p = Placement::new(vec![(ServerId(0), 3), (ServerId(1), 2)], Some(ServerId(2)));
        p.allocate_on(&mut c).unwrap();
        assert_eq!(c.free_gpus(), 16 - 5);
        // Server 1 cannot take two more: server 0's share is handed back.
        let q = Placement::new(vec![(ServerId(0), 1), (ServerId(1), 3)], Some(ServerId(2)));
        assert!(matches!(
            q.allocate_on(&mut c),
            Err(TopologyError::InsufficientGpus {
                server: ServerId(1),
                ..
            })
        ));
        assert_eq!(c.free_gpus(), 16 - 5);
        // Server 1 holds two, not three: releasing `q` is refused whole.
        assert!(matches!(
            q.release_on(&mut c),
            Err(TopologyError::ReleaseOverflow {
                server: ServerId(1),
                ..
            })
        ));
        assert_eq!(c.free_gpus(), 16 - 5);
        p.release_on(&mut c).unwrap();
        assert_eq!(c.free_gpus(), 16);
    }

    #[test]
    fn ina_flag_round_trips() {
        let mut p = Placement::local(ServerId(0), 1);
        assert!(p.ina_enabled());
        p.set_ina_enabled(false);
        assert!(!p.ina_enabled());
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;
    use netpack_topology::ClusterSpec;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 2,
            servers_per_rack: 3,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        })
    }

    #[test]
    fn sharded_placement_merges_and_sorts_pses() {
        let p = Placement::new_sharded(
            vec![(ServerId(0), 2), (ServerId(1), 2)],
            vec![ServerId(4), ServerId(2), ServerId(4)],
        );
        assert_eq!(p.pses(), &[ServerId(2), ServerId(4)]);
        assert_eq!(p.ps(), Some(ServerId(2)));
        assert_eq!(p.shards(), 2);
    }

    #[test]
    fn single_ps_placement_has_one_shard() {
        let p = Placement::new(vec![(ServerId(0), 2)], Some(ServerId(1)));
        assert_eq!(p.shards(), 1);
        let no_ps = Placement::local(ServerId(0), 2);
        assert_eq!(no_ps.shards(), 1);
        assert!(no_ps.pses().is_empty());
    }

    #[test]
    fn sharded_local_detection_requires_all_pses_on_the_worker_server() {
        let local = Placement::new_sharded(vec![(ServerId(0), 4)], vec![ServerId(0)]);
        assert!(local.is_local());
        let remote = Placement::new_sharded(vec![(ServerId(0), 4)], vec![ServerId(0), ServerId(1)]);
        assert!(!remote.is_local());
    }

    #[test]
    fn sharded_placement_validates() {
        let c = cluster();
        let p = Placement::new_sharded(
            vec![(ServerId(0), 2), (ServerId(1), 2)],
            vec![ServerId(2), ServerId(3)],
        );
        p.validate(&c, 4).unwrap();
        let bad =
            Placement::new_sharded(vec![(ServerId(0), 2), (ServerId(1), 2)], vec![ServerId(99)]);
        assert_eq!(
            bad.validate(&c, 4),
            Err(PlacementError::UnknownServer(ServerId(99)))
        );
    }
}
