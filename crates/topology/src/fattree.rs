//! Explicit three-tier fat-trees, compiled to the one-big-switch view.
//!
//! The paper's estimation and placement algorithms run on the
//! "one-big-switch" abstraction (§4.1): every rack hangs off a single
//! core with one uplink. Real clusters are three-tier fat-trees — racks
//! join a pod's aggregation layer, pods join the core. This module makes
//! the abstraction's soundness explicit: [`FatTreeSpec::compile`] lowers a
//! fat-tree to a [`Cluster`] whose per-rack uplink is the rack's
//! **guaranteed worst-case share** of its pod's capacity,
//!
//! ```text
//! effective_uplink = min(rack_to_agg, pod_to_core / racks_per_pod)
//! ```
//!
//! so any steady state the estimator admits is feasible on the real
//! fat-tree even when every rack in a pod transmits at once (the
//! simultaneous-saturation worst case). When pods are under-loaded the
//! real network has headroom the abstraction ignores, i.e. the compiled
//! view is *conservative*, never optimistic — the safe direction for a
//! placement controller.

use crate::{Cluster, ClusterSpec, TopologyError};

/// A three-tier fat-tree: pods of racks, an aggregation layer per pod, and
/// a core layer joining the pods.
#[derive(Debug, Clone, PartialEq)]
pub struct FatTreeSpec {
    /// Number of pods.
    pub pods: usize,
    /// Racks (ToR switches) per pod.
    pub racks_per_pod: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// GPUs per server.
    pub gpus_per_server: usize,
    /// Capacity of each server's access link, in Gbps.
    pub server_link_gbps: f64,
    /// Total capacity from one ToR into its pod's aggregation layer
    /// (sum over the ToR's agg-facing ports), in Gbps.
    pub rack_to_agg_gbps: f64,
    /// Total capacity from one pod's aggregation layer into the core, in
    /// Gbps.
    pub pod_to_core_gbps: f64,
    /// Peak Aggregation Throughput of each ToR switch, in Gbps.
    pub pat_gbps: f64,
    /// Worker-PS round-trip time, in microseconds.
    pub rtt_us: f64,
}

impl FatTreeSpec {
    /// A k=4-flavoured default sized like the paper's simulated cluster:
    /// 4 pods × 4 racks × 16 servers, full rack bandwidth into the pod and
    /// 2:1 pod-to-core oversubscription.
    pub fn paper_like() -> Self {
        FatTreeSpec {
            pods: 4,
            racks_per_pod: 4,
            servers_per_rack: 16,
            gpus_per_server: 4,
            server_link_gbps: 100.0,
            rack_to_agg_gbps: 1600.0,
            pod_to_core_gbps: 3200.0,
            pat_gbps: 1000.0,
            rtt_us: 50.0,
        }
    }

    /// Total racks.
    pub fn racks(&self) -> usize {
        self.pods * self.racks_per_pod
    }

    /// The guaranteed worst-case uplink share of one rack: its own
    /// agg-layer capacity, or an equal split of the pod's core capacity
    /// when every rack in the pod is active — whichever binds first.
    pub fn effective_rack_uplink_gbps(&self) -> f64 {
        self.rack_to_agg_gbps
            .min(self.pod_to_core_gbps / self.racks_per_pod as f64)
    }

    /// The oversubscription ratio the compiled one-big-switch view
    /// carries: full rack bandwidth over the effective uplink.
    pub fn effective_oversubscription(&self) -> f64 {
        let full = self.servers_per_rack as f64 * self.server_link_gbps;
        (full / self.effective_rack_uplink_gbps()).max(1.0)
    }

    /// The equivalent one-big-switch specification.
    pub fn to_cluster_spec(&self) -> ClusterSpec {
        ClusterSpec {
            racks: self.racks(),
            servers_per_rack: self.servers_per_rack,
            gpus_per_server: self.gpus_per_server,
            server_link_gbps: self.server_link_gbps,
            pat_gbps: self.pat_gbps,
            oversubscription: self.effective_oversubscription(),
            rtt_us: self.rtt_us,
            racks_per_pod: Some(self.racks_per_pod),
        }
    }

    /// Compile to a [`Cluster`] under the conservative worst-case uplink.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidSpec`] if any dimension is zero or
    /// any capacity is non-positive.
    pub fn compile(&self) -> Result<Cluster, TopologyError> {
        fn bad(msg: &str) -> Result<Cluster, TopologyError> {
            Err(TopologyError::InvalidSpec(msg.to_string()))
        }
        if self.pods == 0 || self.racks_per_pod == 0 {
            return bad("fat-tree needs at least one pod and one rack per pod");
        }
        if !(self.rack_to_agg_gbps.is_finite() && self.rack_to_agg_gbps > 0.0) {
            return bad("rack_to_agg_gbps must be positive and finite");
        }
        if !(self.pod_to_core_gbps.is_finite() && self.pod_to_core_gbps > 0.0) {
            return bad("pod_to_core_gbps must be positive and finite");
        }
        Cluster::try_new(self.to_cluster_spec())
    }

    /// Worst-case feasibility certificate for the compiled view: if every
    /// rack in every pod pushes its full effective uplink simultaneously,
    /// neither layer of the real fat-tree is exceeded. This is the
    /// inequality that makes the abstraction conservative.
    pub fn simultaneous_saturation_is_feasible(&self) -> bool {
        let eff = self.effective_rack_uplink_gbps();
        eff <= self.rack_to_agg_gbps + 1e-9
            && self.racks_per_pod as f64 * eff <= self.pod_to_core_gbps + 1e-9
    }
}

impl Default for FatTreeSpec {
    fn default() -> Self {
        Self::paper_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_like_compiles_to_the_expected_shape() {
        let ft = FatTreeSpec::paper_like();
        let cluster = ft.compile().unwrap();
        assert_eq!(cluster.num_racks(), 16);
        assert_eq!(cluster.num_servers(), 256);
        // Effective uplink: min(1600, 3200/4) = 800 Gbps => oversub 2:1.
        assert!((ft.effective_rack_uplink_gbps() - 800.0).abs() < 1e-9);
        assert!((ft.effective_oversubscription() - 2.0).abs() < 1e-9);
        assert!((cluster.racks()[0].uplink_gbps() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn agg_layer_can_bind_instead_of_the_core() {
        let ft = FatTreeSpec {
            rack_to_agg_gbps: 400.0,
            pod_to_core_gbps: 10_000.0,
            ..FatTreeSpec::paper_like()
        };
        assert!((ft.effective_rack_uplink_gbps() - 400.0).abs() < 1e-9);
        assert!((ft.effective_oversubscription() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn full_bisection_compiles_to_one_to_one() {
        let ft = FatTreeSpec {
            rack_to_agg_gbps: 1600.0,
            pod_to_core_gbps: 6400.0,
            ..FatTreeSpec::paper_like()
        };
        assert!((ft.effective_oversubscription() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn worst_case_certificate_holds_by_construction() {
        for (agg, core) in [(1600.0, 3200.0), (400.0, 10_000.0), (100.0, 100.0)] {
            let ft = FatTreeSpec {
                rack_to_agg_gbps: agg,
                pod_to_core_gbps: core,
                ..FatTreeSpec::paper_like()
            };
            assert!(
                ft.simultaneous_saturation_is_feasible(),
                "agg {agg} core {core}"
            );
        }
    }

    #[test]
    fn invalid_fat_trees_are_rejected() {
        for ft in [
            FatTreeSpec {
                pods: 0,
                ..FatTreeSpec::paper_like()
            },
            FatTreeSpec {
                rack_to_agg_gbps: 0.0,
                ..FatTreeSpec::paper_like()
            },
            FatTreeSpec {
                pod_to_core_gbps: f64::NAN,
                ..FatTreeSpec::paper_like()
            },
        ] {
            assert!(ft.compile().is_err());
        }
    }
}
