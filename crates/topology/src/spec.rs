//! Static cluster configuration.

use crate::TopologyError;

/// Static description of a fat-tree GPU cluster in the paper's
/// "one-big-switch" abstraction (§4.1).
///
/// All bandwidth quantities are expressed in Gbps. The Peak Aggregation
/// Throughput (PAT) of a ToR switch is the switch-memory resource converted
/// to equivalent throughput, `A = M / RTT` (§4.1); it is configured directly
/// in Gbps because that is the unit every NetPack algorithm consumes.
///
/// # Example
///
/// ```
/// use netpack_topology::ClusterSpec;
///
/// let spec = ClusterSpec::paper_default();
/// assert_eq!(spec.racks, 16);
/// // 1:1 oversubscription => a rack uplink carries the full rack bandwidth.
/// assert_eq!(spec.rack_uplink_gbps(), 16.0 * 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of racks (each rack owns one ToR switch).
    pub racks: usize,
    /// Number of GPU servers per rack.
    pub servers_per_rack: usize,
    /// Number of GPUs per server.
    pub gpus_per_server: usize,
    /// Capacity of each server's access link to its ToR switch, in Gbps.
    pub server_link_gbps: f64,
    /// Peak Aggregation Throughput of each ToR switch, in Gbps
    /// (`0.0` disables INA entirely, as in the Fig. 11 sweep).
    pub pat_gbps: f64,
    /// Oversubscription ratio of the rack uplink; `1.0` means full bisection
    /// bandwidth, `20.0` means the uplink carries 1/20 of the rack's
    /// aggregate server bandwidth (the Fig. 12 sweep).
    pub oversubscription: f64,
    /// Round-trip time between a worker and the PS, in microseconds. Used to
    /// convert between switch memory (packets) and PAT when a caller prefers
    /// to think in memory units, and by the packet-level simulator.
    pub rtt_us: f64,
    /// Racks per pod, when the cluster was lowered from a three-tier
    /// fat-tree ([`FatTreeSpec::to_cluster_spec`](crate::FatTreeSpec)).
    /// Racks are numbered pod-major, so pod `p` owns racks
    /// `p * racks_per_pod .. (p + 1) * racks_per_pod` (the last pod may be
    /// ragged when `racks` is not a multiple). `None` means the pod
    /// structure is unknown; the cluster then behaves as a single pod.
    ///
    /// Pods carry **no semantics** in the one-big-switch model — capacities
    /// are fully described by the per-rack uplink — and no placement or
    /// simulation path reads them: the field records the fat-tree shape a
    /// spec was lowered from ([`num_pods`](Self::num_pods)).
    pub racks_per_pod: Option<usize>,
}

impl ClusterSpec {
    /// The default simulated cluster of the paper's evaluation (§6.1):
    /// 16 racks, 16 servers per rack, 4 GPUs per server, 100 Gbps access
    /// links, 1 Tbps available switch PAT, 1:1 oversubscription.
    pub fn paper_default() -> Self {
        ClusterSpec {
            racks: 16,
            servers_per_rack: 16,
            gpus_per_server: 4,
            server_link_gbps: 100.0,
            pat_gbps: 1000.0,
            oversubscription: 1.0,
            rtt_us: 50.0,
            racks_per_pod: None,
        }
    }

    /// The paper's 5-server, single-rack testbed (§6.1): five servers with
    /// two RTX 2080Ti GPUs each behind one 32x100 Gbps Tofino switch.
    pub fn paper_testbed() -> Self {
        ClusterSpec {
            racks: 1,
            servers_per_rack: 5,
            gpus_per_server: 2,
            server_link_gbps: 100.0,
            pat_gbps: 1000.0,
            oversubscription: 1.0,
            rtt_us: 50.0,
            racks_per_pod: None,
        }
    }

    /// Number of pods: `ceil(racks / racks_per_pod)`, or 1 when no pod
    /// structure was declared.
    pub fn num_pods(&self) -> usize {
        match self.racks_per_pod {
            Some(rpp) if rpp > 0 => self.racks.div_ceil(rpp),
            _ => 1,
        }
    }

    /// Capacity of one rack uplink in Gbps:
    /// `servers_per_rack * server_link_gbps / oversubscription`.
    pub fn rack_uplink_gbps(&self) -> f64 {
        self.servers_per_rack as f64 * self.server_link_gbps / self.oversubscription
    }

    /// Total number of servers in the cluster.
    pub fn num_servers(&self) -> usize {
        self.racks * self.servers_per_rack
    }

    /// Total number of GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.num_servers() * self.gpus_per_server
    }

    /// Convert a switch-memory budget (number of packet-sized aggregators)
    /// into the equivalent PAT in Gbps, `A = M / RTT` (§4.1), for a given
    /// packet payload in bytes.
    ///
    /// # Example
    ///
    /// ```
    /// use netpack_topology::ClusterSpec;
    /// let spec = ClusterSpec::paper_default();
    /// // A window of memory equal to the 100 Gbps BDP yields PAT = 100 Gbps.
    /// let bdp_packets = (100e9 * spec.rtt_us * 1e-6 / (1024.0 * 8.0)).round() as usize;
    /// let pat = spec.memory_to_pat_gbps(bdp_packets, 1024);
    /// assert!((pat - 100.0).abs() < 0.2);
    /// ```
    pub fn memory_to_pat_gbps(&self, aggregators: usize, payload_bytes: usize) -> f64 {
        let bits = aggregators as f64 * payload_bytes as f64 * 8.0;
        bits / (self.rtt_us * 1e-6) / 1e9
    }

    /// Validate the specification.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidSpec`] if any count is zero, any
    /// bandwidth is non-positive or non-finite, or the oversubscription
    /// ratio is below 1.0.
    pub fn validate(&self) -> Result<(), TopologyError> {
        fn bad(msg: &str) -> Result<(), TopologyError> {
            Err(TopologyError::InvalidSpec(msg.to_string()))
        }
        if self.racks == 0 {
            return bad("racks must be positive");
        }
        if self.servers_per_rack == 0 {
            return bad("servers_per_rack must be positive");
        }
        if self.gpus_per_server == 0 {
            return bad("gpus_per_server must be positive");
        }
        if !(self.server_link_gbps.is_finite() && self.server_link_gbps > 0.0) {
            return bad("server_link_gbps must be positive and finite");
        }
        if !(self.pat_gbps.is_finite() && self.pat_gbps >= 0.0) {
            return bad("pat_gbps must be non-negative and finite");
        }
        if !(self.oversubscription.is_finite() && self.oversubscription >= 1.0) {
            return bad("oversubscription must be >= 1.0");
        }
        if !(self.rtt_us.is_finite() && self.rtt_us > 0.0) {
            return bad("rtt_us must be positive and finite");
        }
        if self.racks_per_pod == Some(0) {
            return bad("racks_per_pod must be positive when declared");
        }
        Ok(())
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        ClusterSpec::paper_default().validate().unwrap();
        ClusterSpec::paper_testbed().validate().unwrap();
    }

    #[test]
    fn uplink_scales_with_oversubscription() {
        let mut spec = ClusterSpec::paper_default();
        let full = spec.rack_uplink_gbps();
        spec.oversubscription = 4.0;
        assert!((spec.rack_uplink_gbps() - full / 4.0).abs() < 1e-9);
    }

    #[test]
    fn totals_multiply_out() {
        let spec = ClusterSpec::paper_default();
        assert_eq!(spec.num_servers(), 256);
        assert_eq!(spec.total_gpus(), 1024);
    }

    #[test]
    fn pod_count_rounds_up_and_defaults_to_one() {
        let mut spec = ClusterSpec::paper_default();
        assert_eq!(spec.num_pods(), 1);
        spec.racks_per_pod = Some(4);
        assert_eq!(spec.num_pods(), 4);
        spec.racks_per_pod = Some(5);
        assert_eq!(spec.num_pods(), 4, "16 racks / 5 per pod = 4 pods, ragged");
        spec.validate().unwrap();
    }

    #[test]
    fn zero_racks_per_pod_is_rejected() {
        let spec = ClusterSpec {
            racks_per_pod: Some(0),
            ..ClusterSpec::paper_default()
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn zero_pat_is_valid_no_ina() {
        let spec = ClusterSpec {
            pat_gbps: 0.0,
            ..ClusterSpec::paper_default()
        };
        spec.validate().unwrap();
    }

    #[test]
    fn invalid_specs_are_rejected() {
        for spec in [
            ClusterSpec {
                racks: 0,
                ..ClusterSpec::paper_default()
            },
            ClusterSpec {
                servers_per_rack: 0,
                ..ClusterSpec::paper_default()
            },
            ClusterSpec {
                gpus_per_server: 0,
                ..ClusterSpec::paper_default()
            },
            ClusterSpec {
                server_link_gbps: 0.0,
                ..ClusterSpec::paper_default()
            },
            ClusterSpec {
                server_link_gbps: f64::NAN,
                ..ClusterSpec::paper_default()
            },
            ClusterSpec {
                pat_gbps: -1.0,
                ..ClusterSpec::paper_default()
            },
            ClusterSpec {
                oversubscription: 0.5,
                ..ClusterSpec::paper_default()
            },
            ClusterSpec {
                rtt_us: 0.0,
                ..ClusterSpec::paper_default()
            },
        ] {
            assert!(spec.validate().is_err(), "spec should be invalid: {spec:?}");
        }
    }

    #[test]
    fn memory_to_pat_round_trips_bdp() {
        let spec = ClusterSpec::paper_default();
        // PAT of exactly one 1500-byte aggregator per RTT.
        let pat = spec.memory_to_pat_gbps(1, 1500);
        let expected = 1500.0 * 8.0 / (spec.rtt_us * 1e-6) / 1e9;
        assert!((pat - expected).abs() < 1e-12);
    }
}
