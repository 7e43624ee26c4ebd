//! Two-tier packet-level simulation: per-rack leaf pools feeding a root
//! pool — the hierarchical aggregation of §4.1 at packet granularity.
//!
//! [`PacketSim`](crate::PacketSim) models one switch; multi-rack jobs
//! aggregate twice (worker ToRs, then the PS's ToR). This module simulates
//! that two-level pipeline for a single job so the closed-form hierarchy
//! model (`netpack-model`'s Table 1 / Fig. 5 report) can be validated
//! against packet behaviour:
//!
//! * each rack's workers stream PSN groups into the rack's leaf pool;
//! * a group that wins a leaf slot travels upward as **one** packet, a
//!   collided group travels as `workers-in-rack` packets;
//! * at the root pool the surviving streams aggregate again; collided
//!   groups fan out to the PS individually.
//!
//! Per-RTT windows are paced at a fixed target rate, as in the Fig. 14
//! microbenchmarks.

/// Configuration of the two-tier hierarchy microbenchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchySpec {
    /// Worker count per remote rack (the PS rack may also host workers via
    /// `local_workers`).
    pub rack_workers: Vec<usize>,
    /// Workers inside the PS rack.
    pub local_workers: usize,
    /// Leaf-pool slots per remote rack.
    pub leaf_slots: Vec<usize>,
    /// Root-pool slots (the PS rack's ToR).
    pub root_slots: usize,
    /// Per-worker pacing rate in Gbps.
    pub rate_gbps: f64,
    /// Packet payload in bytes.
    pub payload_bytes: usize,
    /// Round-trip time in microseconds.
    pub rtt_us: f64,
}

impl Default for HierarchySpec {
    fn default() -> Self {
        HierarchySpec {
            rack_workers: vec![2, 2, 2],
            local_workers: 2,
            leaf_slots: vec![4096, 4096, 4096],
            root_slots: 4096,
            rate_gbps: 10.0,
            payload_bytes: 1024,
            rtt_us: 50.0,
        }
    }
}

/// Measured per-round traffic of the two-tier pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyReport {
    /// Average packets per round entering the PS rack from the core
    /// (the paper's `FC` counted in packets, normalized by the window).
    pub core_packets_per_group: f64,
    /// Average packets per round on the root-to-PS link per PSN group
    /// (the paper's `FS` in packets).
    pub ps_packets_per_group: f64,
    /// Fraction of groups fully aggregated at the root.
    pub root_aggregation_ratio: f64,
    /// Rounds simulated.
    pub rounds: u64,
}

/// Run the two-tier microbenchmark for `duration_s` simulated seconds.
///
/// Deterministic: leaf and root pools use sequential (job-offset)
/// addressing with a fixed base, as [`PacketSim`](crate::PacketSim) does
/// with a seeded one.
///
/// # Panics
///
/// Panics if `rack_workers` and `leaf_slots` lengths differ, or if no
/// workers are configured.
pub fn run_hierarchy(spec: &HierarchySpec, duration_s: f64) -> HierarchyReport {
    assert_eq!(
        spec.rack_workers.len(),
        spec.leaf_slots.len(),
        "one leaf pool per remote rack"
    );
    let total_workers: usize = spec.rack_workers.iter().sum::<usize>() + spec.local_workers;
    assert!(total_workers > 0, "hierarchy needs workers");

    let rtt_s = spec.rtt_us * 1e-6;
    let rounds = (duration_s / rtt_s).floor().max(1.0) as u64;
    let window = {
        let bits = spec.rate_gbps * 1e9 * rtt_s;
        (bits / (spec.payload_bytes as f64 * 8.0)).round().max(1.0) as u64
    };

    let mut core_packets = 0u64;
    let mut ps_packets = 0u64;
    let mut root_aggregated = 0u64;
    let mut groups = 0u64;

    let mut psn = 0u64;
    for _round in 0..rounds {
        for k in 0..window {
            let g = psn + k;
            groups += 1;
            // Leaf stage: each remote rack emits 1 packet if the group
            // wins a leaf slot, `workers` packets otherwise. Sequential
            // addressing: the group wins iff its offset fits the pool.
            let mut root_in_packets = 0u64; // packets arriving at root
            let mut root_in_streams = 0u64; // distinct upstream flows
            for (r, &workers) in spec.rack_workers.iter().enumerate() {
                let slots = spec.leaf_slots[r] as u64;
                let aggregated = slots > 0 && (g % window.max(1)) < slots.min(window);
                if aggregated {
                    root_in_packets += 1;
                    root_in_streams += 1;
                } else {
                    root_in_packets += workers as u64;
                    root_in_streams += workers as u64;
                }
            }
            core_packets += root_in_packets;
            // Local workers feed the root directly.
            root_in_packets += spec.local_workers as u64;
            root_in_streams += spec.local_workers as u64;
            let _ = root_in_streams;
            // Root stage.
            let root_slots = spec.root_slots as u64;
            let aggregated = root_slots > 0 && (g % window.max(1)) < root_slots.min(window);
            if aggregated {
                ps_packets += 1;
                root_aggregated += 1;
            } else {
                ps_packets += root_in_packets;
            }
        }
        psn += window;
    }

    HierarchyReport {
        core_packets_per_group: core_packets as f64 / groups as f64,
        ps_packets_per_group: ps_packets as f64 / groups as f64,
        root_aggregation_ratio: root_aggregated as f64 / groups as f64,
        rounds,
    }
}

/// Convenience: the per-switch PAT (in Gbps) a slot count corresponds to.
pub fn slots_to_pat_gbps(spec: &HierarchySpec, slots: usize) -> f64 {
    slots as f64 * spec.payload_bytes as f64 * 8.0 / (spec.rtt_us * 1e-6) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pools_reproduce_the_fig5_low_rate_point() {
        // Everything aggregates: FC = #remote racks, FS = 1.
        let spec = HierarchySpec::default();
        let report = run_hierarchy(&spec, 0.05);
        assert!((report.core_packets_per_group - 3.0).abs() < 1e-9);
        assert!((report.ps_packets_per_group - 1.0).abs() < 1e-9);
        assert!((report.root_aggregation_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_pools_reproduce_the_fig5_high_rate_point() {
        // Nothing aggregates: FC = 6 worker streams, FS = 6 + 2 local = 8.
        let spec = HierarchySpec {
            leaf_slots: vec![0, 0, 0],
            root_slots: 0,
            ..HierarchySpec::default()
        };
        let report = run_hierarchy(&spec, 0.05);
        assert!((report.core_packets_per_group - 6.0).abs() < 1e-9);
        assert!((report.ps_packets_per_group - 8.0).abs() < 1e-9);
        assert_eq!(report.root_aggregation_ratio, 0.0);
    }

    #[test]
    fn partial_leaf_aggregation_interpolates() {
        // Leaves have half the window in slots: half the groups aggregate
        // per rack => FC averages (1+2)/2 per rack = 4.5 total.
        let spec = HierarchySpec::default();
        let window = {
            let bits = spec.rate_gbps * 1e9 * spec.rtt_us * 1e-6;
            (bits / (spec.payload_bytes as f64 * 8.0)).round() as usize
        };
        let spec = HierarchySpec {
            leaf_slots: vec![window / 2; 3],
            ..spec
        };
        let report = run_hierarchy(&spec, 0.05);
        let expected = 3.0 * (1.0 + 2.0) / 2.0;
        assert!(
            (report.core_packets_per_group - expected).abs() < 0.25,
            "got {}",
            report.core_packets_per_group
        );
    }

    #[test]
    fn partial_root_matches_the_table1_mix() {
        // Root pool covers half the window: half the groups collapse to 1
        // packet, half fan out to 3 (aggregated leaves) + 2 local = 5.
        let spec = HierarchySpec::default();
        let window = {
            let bits = spec.rate_gbps * 1e9 * spec.rtt_us * 1e-6;
            (bits / (spec.payload_bytes as f64 * 8.0)).round() as usize
        };
        let spec = HierarchySpec {
            root_slots: window / 2,
            ..spec
        };
        let report = run_hierarchy(&spec, 0.05);
        assert!((report.root_aggregation_ratio - 0.5).abs() < 0.05);
        let expected = 0.5 * 1.0 + 0.5 * 5.0;
        assert!(
            (report.ps_packets_per_group - expected).abs() < 0.25,
            "got {}",
            report.ps_packets_per_group
        );
    }

    #[test]
    fn matches_the_closed_form_model_across_pat_ratios() {
        // Sweep leaf/root pools; compare measured FS against Table 1 with
        // A = slots/window (aggregating iff pool covers the window).
        let base = HierarchySpec::default();
        let window = {
            let bits = base.rate_gbps * 1e9 * base.rtt_us * 1e-6;
            (bits / (base.payload_bytes as f64 * 8.0)).round() as usize
        };
        for (leaf_frac, root_frac) in [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)] {
            let spec = HierarchySpec {
                leaf_slots: vec![(window as f64 * leaf_frac) as usize; 3],
                root_slots: (window as f64 * root_frac) as usize,
                ..base.clone()
            };
            let report = run_hierarchy(&spec, 0.02);
            // Closed form: leaves emit 1 or 2 streams; root emits 1 or all.
            let per_leaf = if leaf_frac >= 1.0 { 1.0 } else { 2.0 };
            let fc = 3.0 * per_leaf;
            let fs = if root_frac >= 1.0 {
                1.0
            } else {
                fc + base.local_workers as f64
            };
            assert!(
                (report.core_packets_per_group - fc).abs() < 1e-6,
                "leaf {leaf_frac}: FC {}",
                report.core_packets_per_group
            );
            assert!(
                (report.ps_packets_per_group - fs).abs() < 1e-6,
                "root {root_frac}: FS {}",
                report.ps_packets_per_group
            );
        }
    }

    #[test]
    #[should_panic(expected = "one leaf pool per remote rack")]
    fn mismatched_lengths_panic() {
        let spec = HierarchySpec {
            rack_workers: vec![2, 2],
            leaf_slots: vec![16],
            ..HierarchySpec::default()
        };
        let _ = run_hierarchy(&spec, 0.01);
    }
}
