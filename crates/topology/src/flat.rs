//! Flat integer-indexed (structure-of-arrays) view of a cluster.
//!
//! The per-entity [`Server`](crate::Server)/[`Rack`](crate::Rack) structs
//! are comfortable at the paper's 256-server scale, but a warehouse-scale
//! placer (50k+ servers, see `ROADMAP.md` item 1) walks the server list
//! hundreds of times per batch; chasing `&Server` references and re-deriving
//! per-rack constants in the hot loop costs both cache lines and branches.
//! [`FlatTopology`] lowers the static side of a [`Cluster`] once into dense
//! parallel vectors indexed by raw ids:
//!
//! | vector               | indexed by | holds                              |
//! |----------------------|------------|------------------------------------|
//! | `server_rack`        | server id  | the owning rack id                 |
//! | `rack_pod`           | rack id    | the owning pod                     |
//! | `rack_first_server`  | rack id    | prefix-sum server offsets          |
//! | `pod_first_rack`     | pod        | prefix-sum rack offsets            |
//! | `link_capacity_gbps` | link index | capacities in [`LinkId`] layout    |
//! | `rack_pat_gbps`      | rack id    | ToR Peak Aggregation Throughput    |
//!
//! Index invariants (checked in tests, relied on by `netpack-placement`):
//!
//! 1. servers are rack-major: rack `r` owns the contiguous server range
//!    `rack_first_server[r] .. rack_first_server[r + 1]`;
//! 2. racks are pod-major: pod `p` owns the contiguous rack range
//!    `pod_first_rack[p] .. pod_first_rack[p + 1]`, hence every pod also
//!    owns a contiguous server range;
//! 3. the link vector uses the [`LinkId::index`] layout — all server access
//!    links first (by server id), then all rack uplinks (by rack id) — the
//!    same layout as the water-filling residual vectors.
//!
//! The view is **read-only static data**: the GPU ledger and all transient
//! network state stay where they were (the `Cluster` and the estimator's
//! `SteadyState`). `DESIGN.md` §3.11 documents how the placement layer uses
//! this view and why it stays bit-identical to the literal algorithm.

use crate::{Cluster, LinkId};

/// Dense structure-of-arrays snapshot of a cluster's static topology.
///
/// Built once per placement batch (O(servers + racks), a few hundred
/// microseconds at 50k servers) and then indexed with plain integers in the
/// hot loops. See the [module docs](self) for the layout and invariants.
///
/// # Example
///
/// ```
/// use netpack_topology::{Cluster, ClusterSpec, FlatTopology, RackId, ServerId};
///
/// let cluster = Cluster::new(ClusterSpec::paper_default());
/// let flat = FlatTopology::new(&cluster);
/// assert_eq!(flat.num_servers(), 256);
/// assert_eq!(flat.rack_of(17), 1);
/// assert_eq!(flat.rack_server_range(1), 16..32);
/// // Without declared pods the whole cluster is one pod.
/// assert_eq!(flat.num_pods(), 1);
/// assert_eq!(flat.pod_server_range(0), 0..256);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTopology {
    server_rack: Vec<u32>,
    rack_pod: Vec<u32>,
    rack_first_server: Vec<u32>,
    pod_first_rack: Vec<u32>,
    link_capacity_gbps: Vec<f64>,
    rack_pat_gbps: Vec<f64>,
    gpus_per_server: usize,
}

impl FlatTopology {
    /// Lower `cluster`'s static topology into dense arrays.
    pub fn new(cluster: &Cluster) -> Self {
        let ns = cluster.num_servers();
        let nr = cluster.num_racks();
        let np = cluster.num_pods();

        let mut server_rack = vec![0u32; ns];
        let mut rack_first_server = Vec::with_capacity(nr + 1);
        let mut rack_pat_gbps = Vec::with_capacity(nr);
        let mut link_capacity_gbps = vec![0.0; cluster.num_links()];
        for rack in cluster.racks() {
            rack_first_server.push(rack.server_ids().next().map_or(ns, |s| s.0) as u32);
            rack_pat_gbps.push(rack.pat_gbps());
            link_capacity_gbps[ns + rack.id().0] = rack.uplink_gbps();
            for sid in rack.server_ids() {
                server_rack[sid.0] = rack.id().0 as u32;
                link_capacity_gbps[sid.0] = LinkId::ServerAccess(sid).capacity_gbps(cluster);
            }
        }
        rack_first_server.push(ns as u32);

        let mut rack_pod = vec![0u32; nr];
        let mut pod_first_rack = Vec::with_capacity(np + 1);
        for pod in 0..np {
            let range = cluster.pod_rack_range(pod);
            pod_first_rack.push(range.start as u32);
            for r in range {
                rack_pod[r] = pod as u32;
            }
        }
        pod_first_rack.push(nr as u32);

        FlatTopology {
            server_rack,
            rack_pod,
            rack_first_server,
            pod_first_rack,
            link_capacity_gbps,
            rack_pat_gbps,
            gpus_per_server: cluster.spec().gpus_per_server,
        }
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.server_rack.len()
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.rack_pod.len()
    }

    /// Number of pods.
    pub fn num_pods(&self) -> usize {
        self.pod_first_rack.len() - 1
    }

    /// GPUs installed per server (uniform across the cluster).
    pub fn gpus_per_server(&self) -> usize {
        self.gpus_per_server
    }

    /// The rack owning server `server`.
    pub fn rack_of(&self, server: usize) -> usize {
        self.server_rack[server] as usize
    }

    /// The pod owning rack `rack`.
    pub fn pod_of_rack(&self, rack: usize) -> usize {
        self.rack_pod[rack] as usize
    }

    /// Half-open server-index range of rack `rack`.
    pub fn rack_server_range(&self, rack: usize) -> std::ops::Range<usize> {
        self.rack_first_server[rack] as usize..self.rack_first_server[rack + 1] as usize
    }

    /// Half-open rack-index range of pod `pod`.
    pub fn pod_rack_range(&self, pod: usize) -> std::ops::Range<usize> {
        self.pod_first_rack[pod] as usize..self.pod_first_rack[pod + 1] as usize
    }

    /// Half-open server-index range of pod `pod` (contiguous because racks
    /// are pod-major and servers rack-major).
    pub fn pod_server_range(&self, pod: usize) -> std::ops::Range<usize> {
        let racks = self.pod_rack_range(pod);
        self.rack_first_server[racks.start] as usize..self.rack_first_server[racks.end] as usize
    }

    /// Capacity of server `server`'s access link, in Gbps.
    pub fn server_link_gbps(&self, server: usize) -> f64 {
        self.link_capacity_gbps[server]
    }

    /// Capacity of rack `rack`'s uplink to the core, in Gbps.
    pub fn rack_uplink_gbps(&self, rack: usize) -> f64 {
        self.link_capacity_gbps[self.server_rack.len() + rack]
    }

    /// Peak Aggregation Throughput of rack `rack`'s ToR switch, in Gbps.
    pub fn rack_pat_gbps(&self, rack: usize) -> f64 {
        self.rack_pat_gbps[rack]
    }

    /// All link capacities in the dense [`LinkId::index`] layout: server
    /// access links first (by server id), then rack uplinks (by rack id).
    pub fn link_capacities_gbps(&self) -> &[f64] {
        &self.link_capacity_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSpec, FatTreeSpec, RackId, ServerId};

    #[test]
    fn flat_view_matches_struct_view() {
        let cluster = FatTreeSpec::paper_like().compile().unwrap();
        let flat = FlatTopology::new(&cluster);
        assert_eq!(flat.num_servers(), cluster.num_servers());
        assert_eq!(flat.num_racks(), cluster.num_racks());
        assert_eq!(flat.num_pods(), 4);
        for s in 0..cluster.num_servers() {
            assert_eq!(flat.rack_of(s), cluster.rack_of(ServerId(s)).0);
            assert_eq!(
                flat.server_link_gbps(s),
                LinkId::ServerAccess(ServerId(s)).capacity_gbps(&cluster)
            );
        }
        for r in 0..cluster.num_racks() {
            let rack = cluster.rack(RackId(r)).unwrap();
            assert_eq!(flat.rack_uplink_gbps(r), rack.uplink_gbps());
            assert_eq!(flat.rack_pat_gbps(r), rack.pat_gbps());
            assert_eq!(flat.pod_of_rack(r), cluster.pod_of_rack(RackId(r)));
            let range = flat.rack_server_range(r);
            let ids: Vec<usize> = rack.server_ids().map(|s| s.0).collect();
            assert_eq!(range.clone().collect::<Vec<_>>(), ids);
        }
    }

    #[test]
    fn pod_ranges_partition_servers() {
        let cluster = FatTreeSpec {
            pods: 3,
            racks_per_pod: 2,
            servers_per_rack: 4,
            ..FatTreeSpec::paper_like()
        }
        .compile()
        .unwrap();
        let flat = FlatTopology::new(&cluster);
        assert_eq!(flat.num_pods(), 3);
        let mut covered = 0;
        for p in 0..flat.num_pods() {
            let range = flat.pod_server_range(p);
            assert_eq!(range.start, covered, "pod ranges must be contiguous");
            covered = range.end;
            for r in flat.pod_rack_range(p) {
                assert_eq!(flat.pod_of_rack(r), p);
            }
        }
        assert_eq!(covered, flat.num_servers());
    }

    #[test]
    fn link_layout_matches_link_id_index() {
        let cluster = Cluster::new(ClusterSpec {
            racks: 3,
            servers_per_rack: 2,
            oversubscription: 2.0,
            ..ClusterSpec::paper_default()
        });
        let flat = FlatTopology::new(&cluster);
        let caps = flat.link_capacities_gbps();
        assert_eq!(caps.len(), cluster.num_links());
        for (i, cap) in caps.iter().enumerate() {
            let link = LinkId::from_index(i, &cluster);
            assert_eq!(*cap, link.capacity_gbps(&cluster));
        }
    }
}
