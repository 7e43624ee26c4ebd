//! The two-level aggregation hierarchy induced by a placement (§4.1).

use crate::Placement;
use netpack_topology::{Cluster, LinkId, RackId, ServerId};

/// A job's aggregation hierarchy: worker ToR switches (leaves) feeding the
/// PS's ToR switch (root) feeding the PS, in the one-big-switch view.
///
/// The hierarchy exists only for jobs that actually generate network
/// traffic; [`JobHierarchy::from_placement`] returns `None` for local
/// (single-server) placements.
///
/// The flow-counting methods take an `aggregating` predicate saying whether
/// a given ToR switch currently aggregates *for this job*. During
/// water-filling a switch aggregates while it still has residual PAT; once
/// the PAT is exhausted its unaggregated flows pass through individually
/// (Algorithm 1, `UpdateFlows`). The job's own INA flag is applied on top:
/// a job with INA disabled never aggregates anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobHierarchy {
    ps_server: ServerId,
    ps_rack: RackId,
    worker_servers: Vec<(ServerId, usize)>,
    /// Racks other than the PS rack that host workers, with worker counts.
    remote_racks: Vec<(RackId, usize)>,
    /// Workers hosted inside the PS rack (they feed the root directly).
    local_workers: usize,
    ina_enabled: bool,
}

impl JobHierarchy {
    /// Derive the hierarchy from a placement.
    ///
    /// Returns `None` when the placement is local (no network traffic) or
    /// when a distributed placement has no PS (such placements are invalid;
    /// run [`Placement::validate`] first for a proper error). For a
    /// sharded (multi-PS) placement this returns the first shard's tree;
    /// use [`JobHierarchy::components_from_placement`] to get all of them.
    pub fn from_placement(cluster: &Cluster, placement: &Placement) -> Option<Self> {
        if placement.is_local() {
            return None;
        }
        let ps_server = placement.ps()?;
        Self::for_ps(cluster, placement, ps_server)
    }

    /// One aggregation tree per parameter server of a (possibly sharded)
    /// placement — the paper's composition of multi-PS AllReduce from
    /// one-PS AllReduces (§4.1). Every worker streams `1/k` of the
    /// gradient to each of the `k` PSes, so the trees all carry the same
    /// per-shard rate and the estimator fills them in lock-step.
    ///
    /// Returns an empty vector for local placements.
    pub fn components_from_placement(cluster: &Cluster, placement: &Placement) -> Vec<Self> {
        if placement.is_local() {
            return Vec::new();
        }
        placement
            .pses()
            .iter()
            .filter_map(|&ps| Self::for_ps(cluster, placement, ps))
            .collect()
    }

    fn for_ps(cluster: &Cluster, placement: &Placement, ps_server: ServerId) -> Option<Self> {
        // A shard whose PS shares the single worker server stays on-host.
        if placement.num_servers() == 1 && placement.workers()[0].0 == ps_server {
            return None;
        }
        let ps_rack = cluster.rack_of(ps_server);
        let mut remote: Vec<(RackId, usize)> = Vec::new();
        let mut local_workers = 0usize;
        for &(s, w) in placement.workers() {
            let rack = cluster.rack_of(s);
            if rack == ps_rack {
                local_workers += w;
            } else if let Some(entry) = remote.iter_mut().find(|(r, _)| *r == rack) {
                entry.1 += w;
            } else {
                remote.push((rack, w));
            }
        }
        remote.sort_by_key(|&(r, _)| r);
        Some(JobHierarchy {
            ps_server,
            ps_rack,
            worker_servers: placement.workers().to_vec(),
            remote_racks: remote,
            local_workers,
            ina_enabled: placement.ina_enabled(),
        })
    }

    /// The server hosting the parameter server.
    pub fn ps_server(&self) -> ServerId {
        self.ps_server
    }

    /// The rack (root switch) of the parameter server.
    pub fn ps_rack(&self) -> RackId {
        self.ps_rack
    }

    /// Whether this job participates in INA at all.
    pub fn ina_enabled(&self) -> bool {
        self.ina_enabled
    }

    /// Set the INA participation flag (used by Algorithm 2 step 4 when it
    /// revokes INA from low-efficiency jobs).
    pub fn set_ina_enabled(&mut self, enabled: bool) {
        self.ina_enabled = enabled;
    }

    /// Worker counts per server, sorted by server id.
    pub fn worker_servers(&self) -> &[(ServerId, usize)] {
        &self.worker_servers
    }

    /// Workers hosted inside the PS rack (they feed the root switch
    /// directly, without crossing an uplink).
    pub fn local_workers(&self) -> usize {
        self.local_workers
    }

    /// Total workers.
    pub fn total_workers(&self) -> usize {
        self.worker_servers.iter().map(|&(_, w)| w).sum()
    }

    /// Whether the job crosses rack boundaries (uses rack uplinks).
    pub fn is_cross_rack(&self) -> bool {
        !self.remote_racks.is_empty()
    }

    /// The ToR switches in this hierarchy: every remote worker rack plus
    /// the PS rack (root), in ascending rack order with the root last.
    pub fn switches(&self) -> Vec<RackId> {
        let mut racks: Vec<RackId> = self.remote_racks.iter().map(|&(r, _)| r).collect();
        racks.push(self.ps_rack);
        racks
    }

    /// The remote (non-PS) racks with their worker counts, sorted by rack
    /// id. Iterating this directly gives callers the per-rack flow count
    /// without the `Option` of [`Self::incoming_flows`].
    pub fn remote_racks(&self) -> &[(RackId, usize)] {
        &self.remote_racks
    }

    /// Number of flows entering a switch of this hierarchy from below,
    /// given the current `aggregating` predicate. Returns `None` for racks
    /// outside the hierarchy.
    ///
    /// This is the `incoming_flows` of the paper's aggregation-efficiency
    /// metric (Algorithm 2 step 4).
    pub fn incoming_flows<F: Fn(RackId) -> bool>(
        &self,
        rack: RackId,
        aggregating: F,
    ) -> Option<u32> {
        if rack == self.ps_rack {
            let from_core: u32 = self
                .remote_racks
                .iter()
                .map(|&(r, w)| self.rack_output_flows(r, w, &aggregating))
                .sum();
            Some(from_core + self.local_workers as u32)
        } else {
            self.remote_racks
                .iter()
                .find(|&&(r, _)| r == rack)
                .map(|&(_, w)| w as u32)
        }
    }

    /// Flow counts on every link this job uses, given the current
    /// `aggregating` predicate (Algorithm 1 `UpdateFlows`, flattened onto
    /// the one-big-switch link set).
    ///
    /// Links are reported at most once each; a PS colocated with workers
    /// contributes the sum of both roles to its access link.
    pub fn link_flows<F: Fn(RackId) -> bool>(&self, aggregating: F) -> Vec<(LinkId, u32)> {
        let mut flows: Vec<(LinkId, u32)> = Vec::with_capacity(self.worker_servers.len() + 4);
        self.for_each_link_flow(aggregating, |link, f| flows.push((link, f)));
        flows
    }

    /// [`link_flows`](Self::link_flows) without the `Vec`: calls `visit`
    /// once per link, in the same order — what the water-filling round
    /// loop uses so a solve allocates nothing.
    pub fn for_each_link_flow<F: Fn(RackId) -> bool>(
        &self,
        aggregating: F,
        mut visit: impl FnMut(LinkId, u32),
    ) {
        // Remote racks: leaf switch output crosses its own uplink and the
        // PS rack's uplink.
        let into_root_from_core: u32 = self
            .remote_racks
            .iter()
            .map(|&(r, w)| self.rack_output_flows(r, w, &aggregating))
            .sum();
        // Root switch output onto the PS's access link.
        let root_in = into_root_from_core + self.local_workers as u32;
        let root_out = if self.aggregates_at(self.ps_rack, &aggregating) {
            1
        } else {
            root_in
        };
        // Worker gradient streams on their server access links; a PS
        // sharing a worker server adds the root output to that entry.
        let mut ps_merged = false;
        for &(s, w) in &self.worker_servers {
            let shared = s == self.ps_server;
            ps_merged |= shared;
            visit(
                LinkId::ServerAccess(s),
                w as u32 + if shared { root_out } else { 0 },
            );
        }
        for &(r, w) in &self.remote_racks {
            visit(
                LinkId::RackUplink(r),
                self.rack_output_flows(r, w, &aggregating),
            );
        }
        if into_root_from_core > 0 {
            visit(LinkId::RackUplink(self.ps_rack), into_root_from_core);
        }
        if !ps_merged {
            visit(LinkId::ServerAccess(self.ps_server), root_out);
        }
    }

    fn aggregates_at<F: Fn(RackId) -> bool>(&self, rack: RackId, aggregating: &F) -> bool {
        self.ina_enabled && aggregating(rack)
    }

    fn rack_output_flows<F: Fn(RackId) -> bool>(
        &self,
        rack: RackId,
        workers: usize,
        aggregating: &F,
    ) -> u32 {
        if self.aggregates_at(rack, aggregating) {
            1
        } else {
            workers as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_topology::ClusterSpec;

    /// 4 racks x 2 servers x 4 GPUs.
    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 4,
            servers_per_rack: 2,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        })
    }

    /// The Fig. 5 topology: 2 workers in each of racks 0..4, PS in rack 1.
    fn fig5(cluster: &Cluster) -> JobHierarchy {
        let placement = Placement::new(
            vec![
                (ServerId(0), 2),
                (ServerId(2), 2),
                (ServerId(4), 2),
                (ServerId(6), 2),
            ],
            Some(ServerId(3)),
        );
        JobHierarchy::from_placement(cluster, &placement).unwrap()
    }

    fn flows_map(h: &JobHierarchy, agg: impl Fn(RackId) -> bool) -> Vec<(LinkId, u32)> {
        let mut v = h.link_flows(agg);
        v.sort();
        v
    }

    #[test]
    fn local_placements_have_no_hierarchy() {
        let c = cluster();
        assert!(JobHierarchy::from_placement(&c, &Placement::local(ServerId(0), 4)).is_none());
        let colocated = Placement::new(vec![(ServerId(0), 4)], Some(ServerId(0)));
        assert!(JobHierarchy::from_placement(&c, &colocated).is_none());
    }

    #[test]
    fn fig5_full_aggregation_flow_counts() {
        let c = cluster();
        let h = fig5(&c);
        // Every switch aggregates: each remote uplink carries 1 flow, the
        // PS uplink carries 3 inbound, the PS access link carries 1.
        let flows = flows_map(&h, |_| true);
        assert!(flows.contains(&(LinkId::RackUplink(RackId(0)), 1)));
        assert!(flows.contains(&(LinkId::RackUplink(RackId(2)), 1)));
        assert!(flows.contains(&(LinkId::RackUplink(RackId(3)), 1)));
        assert!(flows.contains(&(LinkId::RackUplink(RackId(1)), 3)));
        assert!(flows.contains(&(LinkId::ServerAccess(ServerId(3)), 1)));
        // Worker access links carry their two workers each.
        assert!(flows.contains(&(LinkId::ServerAccess(ServerId(0)), 2)));
    }

    #[test]
    fn fig5_no_aggregation_flow_counts() {
        let c = cluster();
        let h = fig5(&c);
        let flows = flows_map(&h, |_| false);
        // FC = 6 unaggregated remote flows converge on the PS rack uplink;
        // FS = 8 (6 remote + 2 local) on the PS access link.
        assert!(flows.contains(&(LinkId::RackUplink(RackId(1)), 6)));
        assert!(flows.contains(&(LinkId::ServerAccess(ServerId(3)), 8)));
    }

    #[test]
    fn ina_disabled_overrides_aggregating_predicate() {
        let c = cluster();
        let mut h = fig5(&c);
        h.set_ina_enabled(false);
        assert!(!h.ina_enabled());
        let flows = flows_map(&h, |_| true);
        assert!(flows.contains(&(LinkId::ServerAccess(ServerId(3)), 8)));
    }

    #[test]
    fn incoming_flows_match_paper_definitions() {
        let c = cluster();
        let h = fig5(&c);
        // Leaf rack 0 hosts 2 workers.
        assert_eq!(h.incoming_flows(RackId(0), |_| true), Some(2));
        // Root: 3 aggregated remote flows + 2 local workers.
        assert_eq!(h.incoming_flows(RackId(1), |_| true), Some(5));
        // Root with no leaf aggregation: 6 remote + 2 local.
        assert_eq!(h.incoming_flows(RackId(1), |_| false), Some(8));
        // Rack outside the hierarchy (all four racks host workers here, so
        // fabricate one by rebuilding on a bigger cluster).
        let big = Cluster::new(ClusterSpec {
            racks: 5,
            servers_per_rack: 2,
            ..ClusterSpec::paper_default()
        });
        let h2 = fig5(&big);
        assert_eq!(h2.incoming_flows(RackId(4), |_| true), None);
    }

    #[test]
    fn ps_colocated_with_workers_merges_access_link_flows() {
        let c = cluster();
        // 2 workers on server 0, 2 on server 1 (same rack), PS on server 0.
        let p = Placement::new(vec![(ServerId(0), 2), (ServerId(1), 2)], Some(ServerId(0)));
        let h = JobHierarchy::from_placement(&c, &p).unwrap();
        assert!(!h.is_cross_rack());
        let flows = flows_map(&h, |_| false);
        // Server 0 access link: 2 worker flows + 4 unaggregated inbound.
        assert!(flows.contains(&(LinkId::ServerAccess(ServerId(0)), 6)));
        // With root aggregation: 2 worker flows + 1 aggregated inbound.
        let flows = flows_map(&h, |_| true);
        assert!(flows.contains(&(LinkId::ServerAccess(ServerId(0)), 3)));
        // No uplinks involved in a single-rack job.
        assert!(flows
            .iter()
            .all(|(l, _)| matches!(l, LinkId::ServerAccess(_))));
    }

    #[test]
    fn switches_list_root_last() {
        let c = cluster();
        let h = fig5(&c);
        assert_eq!(
            h.switches(),
            vec![RackId(0), RackId(2), RackId(3), RackId(1)]
        );
        assert!(h.is_cross_rack());
        assert_eq!(h.total_workers(), 8);
        assert_eq!(h.ps_server(), ServerId(3));
        assert_eq!(h.ps_rack(), RackId(1));
    }

    #[test]
    fn partial_aggregation_mixes_outputs() {
        let c = cluster();
        let h = fig5(&c);
        // Only rack 0 has run out of PAT.
        let flows = flows_map(&h, |r| r != RackId(0));
        assert!(flows.contains(&(LinkId::RackUplink(RackId(0)), 2)));
        assert!(flows.contains(&(LinkId::RackUplink(RackId(2)), 1)));
        // Root inbound: 2 + 1 + 1 = 4 on the PS rack uplink.
        assert!(flows.contains(&(LinkId::RackUplink(RackId(1)), 4)));
        // Root still aggregates: PS access link carries 1.
        assert!(flows.contains(&(LinkId::ServerAccess(ServerId(3)), 1)));
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
    fn components_build_one_tree_per_ps() {
        let c = cluster();
        let p = Placement::new_sharded(
            vec![(ServerId(0), 2), (ServerId(1), 2)],
            vec![ServerId(2), ServerId(4)],
        );
        let comps = JobHierarchy::components_from_placement(&c, &p);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].ps_server(), ServerId(2));
        assert_eq!(comps[1].ps_server(), ServerId(4));
        // Second shard's PS sits in rack 1: that tree crosses racks.
        assert!(!comps[0].is_cross_rack());
        assert!(comps[1].is_cross_rack());
    }

    #[test]
    fn components_skip_on_host_shards() {
        let c = cluster();
        // Single worker server; one PS colocated, one remote.
        let p = Placement::new_sharded(vec![(ServerId(0), 4)], vec![ServerId(0), ServerId(1)]);
        let comps = JobHierarchy::components_from_placement(&c, &p);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].ps_server(), ServerId(1));
    }

    #[test]
    fn components_empty_for_local_placements() {
        let c = cluster();
        assert!(
            JobHierarchy::components_from_placement(&c, &Placement::local(ServerId(0), 4))
                .is_empty()
        );
    }
}
