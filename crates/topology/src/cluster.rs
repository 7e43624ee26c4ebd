//! The cluster object: static configuration plus the GPU allocation ledger.

use crate::{ClusterSpec, RackId, ServerId, TopologyError};

/// One GPU server, as a value: a view the [`Cluster`] builds on demand from
/// its per-server free-GPU array. A cluster stores no `Server`; the id is
/// the index, the rack follows from it (racks are uniform), and every
/// server has the spec's GPUs installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Server {
    id: ServerId,
    rack: RackId,
    gpus_total: usize,
    gpus_free: usize,
}

impl Server {
    /// This server's identifier.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The rack (and ToR switch) this server is attached to.
    pub fn rack(&self) -> RackId {
        self.rack
    }

    /// Number of GPUs installed in this server.
    pub fn gpus_total(&self) -> usize {
        self.gpus_total
    }

    /// Number of GPUs unallocated when the view was taken.
    pub fn gpus_free(&self) -> usize {
        self.gpus_free
    }

    /// Number of GPUs allocated to jobs when the view was taken.
    pub fn gpus_used(&self) -> usize {
        self.gpus_total - self.gpus_free
    }
}

/// One rack: a ToR switch plus a contiguous range of servers.
#[derive(Debug, Clone, PartialEq)]
pub struct Rack {
    id: RackId,
    first_server: usize,
    servers: usize,
    pat_gbps: f64,
    uplink_gbps: f64,
}

impl Rack {
    /// This rack's identifier.
    pub fn id(&self) -> RackId {
        self.id
    }

    /// Identifiers of the servers in this rack, in ascending order.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> + '_ {
        (self.first_server..self.first_server + self.servers).map(ServerId)
    }

    /// Number of servers in this rack.
    pub fn num_servers(&self) -> usize {
        self.servers
    }

    /// Peak Aggregation Throughput of this rack's ToR switch, in Gbps.
    pub fn pat_gbps(&self) -> f64 {
        self.pat_gbps
    }

    /// Capacity of this rack's uplink to the core, in Gbps.
    pub fn uplink_gbps(&self) -> f64 {
        self.uplink_gbps
    }
}

/// A GPU cluster with statistical-INA ToR switches.
///
/// `Cluster` is the single source of truth for static network configuration
/// (the paper's "network information base", Fig. 4 step 2) and for the GPU
/// allocation ledger. GPUs are allocated when a job is placed and released
/// when it finishes; per the paper's assumption they are never preempted
/// while a job runs.
///
/// The ledger is one dense array of free GPUs indexed by server id
/// ([`free_gpus_per_server`](Self::free_gpus_per_server)), the histogram
/// over it ([`servers_with_free_gpus`](Self::servers_with_free_gpus)) and
/// the free total, all three written together. [`Server`]s are views built
/// from it.
///
/// # Example
///
/// ```
/// use netpack_topology::{Cluster, ClusterSpec, ServerId};
///
/// let mut cluster = Cluster::new(ClusterSpec::paper_testbed());
/// cluster.allocate_gpus(ServerId(0), 2)?;
/// assert_eq!(cluster.server(ServerId(0)).unwrap().gpus_free(), 0);
/// assert_eq!(cluster.free_gpus_per_server()[..2], [0, 2]);
/// cluster.release_gpus(ServerId(0), 2)?;
/// assert_eq!(cluster.free_gpus(), cluster.total_gpus());
/// # Ok::<(), netpack_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    spec: ClusterSpec,
    racks: Vec<Rack>,
    /// Free GPUs per server, indexed by server id.
    free: Vec<u32>,
    /// `with_free[w]` = servers with exactly `w` free GPUs.
    with_free: Vec<u32>,
    /// The sum of `free`.
    free_total: usize,
}

impl Cluster {
    /// Build a cluster from a specification.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`ClusterSpec::validate`]. Use
    /// [`Cluster::try_new`] for a fallible variant.
    pub fn new(spec: ClusterSpec) -> Self {
        // netpack-lint: allow(E1): documented `# Panics` convenience constructor — the fallible path is try_new, and every library call site uses it
        Self::try_new(spec).expect("invalid cluster spec")
    }

    /// Fallible variant of [`Cluster::new`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidSpec`] when the specification is
    /// rejected by [`ClusterSpec::validate`]; nothing is allocated then.
    pub fn try_new(spec: ClusterSpec) -> Result<Self, TopologyError> {
        spec.validate()?;
        let racks = (0..spec.racks)
            .map(|r| Rack {
                id: RackId(r),
                first_server: r * spec.servers_per_rack,
                servers: spec.servers_per_rack,
                pat_gbps: spec.pat_gbps,
                uplink_gbps: spec.rack_uplink_gbps(),
            })
            .collect();
        // `validate` bounds the server and GPU counts by `u32::MAX`.
        let (servers, gpus) = (spec.num_servers(), spec.gpus_per_server);
        let mut with_free = vec![0; gpus + 1];
        with_free[gpus] = servers as u32;
        Ok(Cluster {
            racks,
            free: vec![gpus as u32; servers],
            with_free,
            free_total: spec.total_gpus(),
            spec,
        })
    }

    /// The static specification this cluster was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// A view of every server, in [`ServerId`] order.
    pub fn servers(&self) -> impl ExactSizeIterator<Item = Server> + '_ {
        self.free
            .iter()
            .enumerate()
            .map(|(id, &free)| self.view(id, free))
    }

    /// Free GPUs per server, indexed by [`ServerId`]: the ledger itself.
    pub fn free_gpus_per_server(&self) -> &[u32] {
        &self.free
    }

    /// The histogram over [`free_gpus_per_server`](Self::free_gpus_per_server):
    /// entry `w` counts the servers with exactly `w` free GPUs, for `w` in
    /// `0..=gpus_per_server`.
    pub fn servers_with_free_gpus(&self) -> &[u32] {
        &self.with_free
    }

    /// All racks, indexed by [`RackId`].
    pub fn racks(&self) -> &[Rack] {
        &self.racks
    }

    /// A view of one server, or `None` if `id` is not part of this cluster.
    pub fn server(&self, id: ServerId) -> Option<Server> {
        self.free.get(id.0).map(|&free| self.view(id.0, free))
    }

    /// Look up a rack.
    pub fn rack(&self, id: RackId) -> Option<&Rack> {
        self.racks.get(id.0)
    }

    /// The rack a server belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `server` is not part of this cluster.
    pub fn rack_of(&self, server: ServerId) -> RackId {
        assert!(
            server.0 < self.free.len(),
            "server {server} is not part of this cluster"
        );
        RackId(server.0 / self.spec.servers_per_rack)
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.free.len()
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.racks.len()
    }

    /// Number of links in the one-big-switch view: one access link per
    /// server plus one uplink per rack.
    pub fn num_links(&self) -> usize {
        self.num_servers() + self.num_racks()
    }

    /// Total GPUs installed.
    pub fn total_gpus(&self) -> usize {
        self.spec.total_gpus()
    }

    /// Total GPUs currently free.
    pub fn free_gpus(&self) -> usize {
        self.free_total
    }

    /// Allocate `count` GPUs on `server`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownServer`] for an out-of-range server
    /// and [`TopologyError::InsufficientGpus`] when fewer than `count` GPUs
    /// are free. On error the ledger is unchanged.
    pub fn allocate_gpus(&mut self, server: ServerId, count: usize) -> Result<(), TopologyError> {
        let free = self.free_on(server)?;
        if count > free {
            return Err(TopologyError::InsufficientGpus {
                server,
                requested: count,
                available: free,
            });
        }
        self.set_free(server.0, free - count);
        Ok(())
    }

    /// Release `count` GPUs on `server`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownServer`] for an out-of-range server
    /// and [`TopologyError::ReleaseOverflow`] when the release exceeds the
    /// currently-allocated count. On error the ledger is unchanged.
    pub fn release_gpus(&mut self, server: ServerId, count: usize) -> Result<(), TopologyError> {
        let free = self.free_on(server)?;
        let allocated = self.spec.gpus_per_server - free;
        if count > allocated {
            return Err(TopologyError::ReleaseOverflow {
                server,
                released: count,
                allocated,
            });
        }
        self.set_free(server.0, free + count);
        Ok(())
    }

    /// The view of server `id`, whose free count is `free`.
    fn view(&self, id: usize, free: u32) -> Server {
        Server {
            id: ServerId(id),
            rack: RackId(id / self.spec.servers_per_rack),
            gpus_total: self.spec.gpus_per_server,
            gpus_free: free as usize,
        }
    }

    /// Free GPUs on `server`.
    fn free_on(&self, server: ServerId) -> Result<usize, TopologyError> {
        self.free
            .get(server.0)
            .map(|&free| free as usize)
            .ok_or(TopologyError::UnknownServer(server))
    }

    /// Set `server`'s free count, and the histogram and total with it —
    /// the ledger's only write.
    fn set_free(&mut self, server: usize, free: usize) {
        let old = self.free[server] as usize;
        self.with_free[old] -= 1;
        self.with_free[free] += 1;
        self.free_total = self.free_total - old + free;
        self.free[server] = free as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 2,
            servers_per_rack: 3,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        })
    }

    #[test]
    fn construction_lays_out_dense_ids() {
        let c = small();
        assert_eq!(c.num_servers(), 6);
        assert_eq!(c.num_racks(), 2);
        assert_eq!(c.num_links(), 8);
        for (i, s) in c.servers().enumerate() {
            assert_eq!(s.id(), ServerId(i));
        }
        assert_eq!(c.rack_of(ServerId(0)), RackId(0));
        assert_eq!(c.rack_of(ServerId(3)), RackId(1));
        let rack1: Vec<_> = c.rack(RackId(1)).unwrap().server_ids().collect();
        assert_eq!(rack1, vec![ServerId(3), ServerId(4), ServerId(5)]);
    }

    #[test]
    fn gpu_ledger_allocates_and_releases() {
        let mut c = small();
        assert_eq!(c.free_gpus(), 24);
        c.allocate_gpus(ServerId(1), 3).unwrap();
        assert_eq!(c.server(ServerId(1)).unwrap().gpus_free(), 1);
        assert_eq!(c.server(ServerId(1)).unwrap().gpus_used(), 3);
        assert_eq!(c.free_gpus(), 21);
        c.release_gpus(ServerId(1), 3).unwrap();
        assert_eq!(c.free_gpus(), 24);
    }

    #[test]
    fn over_allocation_is_rejected_and_leaves_ledger_unchanged() {
        let mut c = small();
        let err = c.allocate_gpus(ServerId(0), 5).unwrap_err();
        assert_eq!(
            err,
            TopologyError::InsufficientGpus {
                server: ServerId(0),
                requested: 5,
                available: 4
            }
        );
        assert_eq!(c.free_gpus(), 24);
    }

    #[test]
    fn over_release_is_rejected() {
        let mut c = small();
        c.allocate_gpus(ServerId(0), 2).unwrap();
        let err = c.release_gpus(ServerId(0), 3).unwrap_err();
        assert_eq!(
            err,
            TopologyError::ReleaseOverflow {
                server: ServerId(0),
                released: 3,
                allocated: 2
            }
        );
    }

    /// A release so large that `free + count` would wrap is refused like
    /// any other over-release, in every build, and changes nothing.
    #[test]
    fn a_wrapping_release_is_rejected_and_leaves_ledger_unchanged() {
        let mut c = Cluster::new(ClusterSpec::paper_testbed());
        c.allocate_gpus(ServerId(0), 1).unwrap();
        let before = c.clone();
        let err = c.release_gpus(ServerId(0), usize::MAX).unwrap_err();
        assert_eq!(
            err,
            TopologyError::ReleaseOverflow {
                server: ServerId(0),
                released: usize::MAX,
                allocated: 1
            }
        );
        assert_eq!(c, before);
        assert_eq!(c.server(ServerId(0)).unwrap().gpus_free(), 1);
    }

    #[test]
    fn unknown_server_is_rejected() {
        let mut c = small();
        assert_eq!(
            c.allocate_gpus(ServerId(99), 1).unwrap_err(),
            TopologyError::UnknownServer(ServerId(99))
        );
        assert_eq!(
            c.release_gpus(ServerId(99), 1).unwrap_err(),
            TopologyError::UnknownServer(ServerId(99))
        );
    }

    #[test]
    fn try_new_rejects_invalid_spec() {
        let spec = ClusterSpec {
            racks: 0,
            ..ClusterSpec::paper_default()
        };
        assert!(Cluster::try_new(spec).is_err());
    }

    #[test]
    fn rack_carries_pat_and_uplink() {
        let c = small();
        let rack = c.rack(RackId(0)).unwrap();
        assert_eq!(rack.pat_gbps(), c.spec().pat_gbps);
        assert_eq!(rack.uplink_gbps(), c.spec().rack_uplink_gbps());
        assert_eq!(rack.num_servers(), 3);
    }
}
