//! Flat integer-indexed (structure-of-arrays) view of a cluster.
//!
//! The per-entity [`Server`](crate::Server)/[`Rack`](crate::Rack) structs
//! are comfortable at the paper's 256-server scale, but a warehouse-scale
//! placer (50k+ servers, the `fig10_xl` batch) walks the server list
//! hundreds of times per batch; chasing `&Server` references and re-deriving
//! per-rack constants in the hot loop costs both cache lines and branches.
//! [`FlatTopology`] lowers what the placement layer reads of the static
//! side of a [`Cluster`] — and nothing else — once into dense parallel
//! vectors indexed by raw ids:
//!
//! | vector              | indexed by | holds                           |
//! |---------------------|------------|---------------------------------|
//! | `server_rack`       | server id  | the owning rack id              |
//! | `rack_first_server` | rack id    | prefix-sum server offsets       |
//! | `rack_uplink_gbps`  | rack id    | uplink-to-core capacity, Gbps   |
//!
//! Index invariants (checked in tests, relied on by `netpack-placement`):
//!
//! 1. servers are rack-major: rack `r` owns the contiguous server range
//!    `rack_first_server[r] .. rack_first_server[r + 1]`;
//! 2. `rack_uplink_gbps[r]` is the capacity of
//!    [`LinkId::RackUplink(r)`](crate::LinkId::RackUplink), the link the
//!    water-filling residual vectors keep at index `num_servers + r`.
//!
//! Pods, ToR aggregation throughput and per-server access-link capacities
//! are not lowered: no hot loop reads them, and the [`Cluster`] answers for
//! whoever does.
//!
//! The view is **read-only static data**: the GPU ledger and all transient
//! network state live with their owners (`netpack-placement`'s ledger and
//! the estimator's `SteadyState`). `DESIGN.md` §3.11 documents how the
//! placement layer uses this view and why it stays bit-identical to the
//! literal algorithm.

use crate::{Cluster, Rack};

/// The id of `rack`'s first server, or `ns` if it has none.
fn first_server(rack: &Rack, ns: usize) -> usize {
    rack.server_ids().next().map_or(ns, |s| s.0)
}

/// Dense structure-of-arrays snapshot of a cluster's static topology.
///
/// Lowered once per placement batch or session (O(servers + racks), 20–40
/// µs at 50k servers) and then indexed with plain integers in the hot
/// loops. [`lower`](Self::lower) re-lowers a cluster into the arrays a view
/// already holds: an O(racks) compare when the cluster has the same shape.
/// The module docs of `flat.rs` give the layout and invariants.
///
/// # Example
///
/// ```
/// use netpack_topology::{Cluster, ClusterSpec, FlatTopology};
///
/// let cluster = Cluster::new(ClusterSpec::paper_default());
/// let flat = FlatTopology::new(&cluster);
/// assert_eq!(flat.num_servers(), 256);
/// assert_eq!(flat.rack_of(17), 1);
/// assert_eq!(flat.rack_server_range(1), 16..32);
/// assert_eq!(flat.rack_uplink_gbps(1), cluster.racks()[1].uplink_gbps());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatTopology {
    server_rack: Vec<u32>,
    rack_first_server: Vec<u32>,
    rack_uplink_gbps: Vec<f64>,
    gpus_per_server: usize,
}

impl FlatTopology {
    /// Lower `cluster`'s static topology into dense arrays.
    pub fn new(cluster: &Cluster) -> Self {
        let mut flat = FlatTopology::default();
        flat.lower(cluster);
        flat
    }

    /// Make this view `cluster`'s, reusing its arrays. When the view
    /// already holds `cluster`'s rack ranges, uplink capacities (bit for
    /// bit) and GPUs per server, nothing is written and the cost is one
    /// pass over the racks; otherwise the cluster is lowered in full.
    pub fn lower(&mut self, cluster: &Cluster) {
        let ns = cluster.num_servers();
        let gps = cluster.spec().gpus_per_server;
        let same = self.gpus_per_server == gps
            && self.server_rack.len() == ns
            && self.rack_uplink_gbps.len() == cluster.num_racks()
            && cluster.racks().iter().enumerate().all(|(r, rack)| {
                let range = self.rack_server_range(r);
                range.start == first_server(rack, ns)
                    && range.len() == rack.num_servers()
                    && self.rack_uplink_gbps[r].to_bits() == rack.uplink_gbps().to_bits()
            });
        if same {
            return;
        }
        self.server_rack.clear();
        self.server_rack.resize(ns, 0);
        self.rack_first_server.clear();
        self.rack_uplink_gbps.clear();
        for rack in cluster.racks() {
            self.rack_first_server.push(first_server(rack, ns) as u32);
            self.rack_uplink_gbps.push(rack.uplink_gbps());
            for sid in rack.server_ids() {
                self.server_rack[sid.0] = rack.id().0 as u32;
            }
        }
        self.rack_first_server.push(ns as u32);
        self.gpus_per_server = gps;
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.server_rack.len()
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.rack_uplink_gbps.len()
    }

    /// GPUs installed per server (uniform across the cluster).
    pub fn gpus_per_server(&self) -> usize {
        self.gpus_per_server
    }

    /// The rack owning server `server`.
    pub fn rack_of(&self, server: usize) -> usize {
        self.server_rack[server] as usize
    }

    /// Half-open server-index range of rack `rack`.
    pub fn rack_server_range(&self, rack: usize) -> std::ops::Range<usize> {
        self.rack_first_server[rack] as usize..self.rack_first_server[rack + 1] as usize
    }

    /// Capacity of rack `rack`'s uplink to the core, in Gbps.
    pub fn rack_uplink_gbps(&self, rack: usize) -> f64 {
        self.rack_uplink_gbps[rack]
    }

    /// The owning rack of every server: `server_racks()[s] == rack_of(s)`.
    pub fn server_racks(&self) -> &[u32] {
        &self.server_rack
    }

    /// The first server of every rack, then the server count: rack `r`
    /// owns `rack_starts()[r]..rack_starts()[r + 1]`.
    pub fn rack_starts(&self) -> &[u32] {
        &self.rack_first_server
    }

    /// Every rack's uplink capacity in Gbps, indexed by rack.
    pub fn rack_uplinks_gbps(&self) -> &[f64] {
        &self.rack_uplink_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSpec, FatTreeSpec, LinkId, RackId, ServerId};

    #[test]
    fn flat_view_matches_struct_view() {
        let cluster = FatTreeSpec::paper_like().compile().unwrap();
        let flat = FlatTopology::new(&cluster);
        assert_eq!(flat.num_servers(), cluster.num_servers());
        assert_eq!(flat.num_racks(), cluster.num_racks());
        assert_eq!(flat.gpus_per_server(), cluster.spec().gpus_per_server);
        for s in 0..cluster.num_servers() {
            assert_eq!(flat.rack_of(s), cluster.rack_of(ServerId(s)).0);
        }
        for r in 0..cluster.num_racks() {
            let rack = cluster.rack(RackId(r)).unwrap();
            assert_eq!(flat.rack_uplink_gbps(r), rack.uplink_gbps());
            let range = flat.rack_server_range(r);
            let ids: Vec<usize> = rack.server_ids().map(|s| s.0).collect();
            assert_eq!(range.clone().collect::<Vec<_>>(), ids);
        }
    }

    /// A view re-lowered over another cluster is the view `new` builds,
    /// whichever compared field differs: racks, servers per rack, GPUs per
    /// server or uplink capacity.
    #[test]
    fn lower_reuses_a_view_only_for_the_same_shape() {
        let base = ClusterSpec {
            racks: 3,
            servers_per_rack: 4,
            ..ClusterSpec::paper_default()
        };
        let clusters = [
            Cluster::new(base.clone()),
            Cluster::new(ClusterSpec {
                racks: 4,
                ..base.clone()
            }),
            Cluster::new(ClusterSpec {
                servers_per_rack: 5,
                ..base.clone()
            }),
            Cluster::new(ClusterSpec {
                gpus_per_server: 2,
                ..base.clone()
            }),
            Cluster::new(ClusterSpec {
                oversubscription: 2.0,
                ..base
            }),
            FatTreeSpec::paper_like().compile().unwrap(),
        ];
        let mut view = FlatTopology::default();
        for a in &clusters {
            for b in &clusters {
                view.lower(a);
                assert_eq!(view, FlatTopology::new(a));
                view.lower(b);
                assert_eq!(view, FlatTopology::new(b));
            }
        }
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
        assert_eq!(flat.num_servers() + flat.num_racks(), cluster.num_links());
        for r in 0..flat.num_racks() {
            let link = LinkId::from_index(flat.num_servers() + r, &cluster);
            assert_eq!(link, LinkId::RackUplink(RackId(r)));
            assert_eq!(flat.rack_uplink_gbps(r), link.capacity_gbps(&cluster));
        }
    }
}
