//! Closed-form single-job aggregation report (Table 1, Fig. 5, Fig. 14a).

use crate::JobHierarchy;
use netpack_topology::{Cluster, LinkId, RackId};

/// The Table-1 model evaluated for one job at a fixed per-worker rate.
///
/// Produced by [`single_job_report`]. `fs` and `fc` are the two series of
/// the paper's Fig. 5b: the number of flows on the `ToR^PS → PS` link and
/// on the `core → ToR^PS` uplink respectively.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationReport {
    /// Flows on the root-switch-to-PS link (`FS` in Fig. 5).
    pub fs: u32,
    /// Total flows entering the PS rack from the core (`FC` in Fig. 5);
    /// zero for single-rack jobs.
    pub fc: u32,
    /// Traffic on every link the job uses, in Gbps.
    pub link_traffic: Vec<(LinkId, f64)>,
    /// Throughput aggregated at each switch of the hierarchy, in Gbps
    /// (`min(A, C)` per Table 1 when INA is on, else 0).
    pub switch_aggregated: Vec<(RackId, f64)>,
    /// The per-worker streaming rate `C` the report was evaluated at.
    pub rate_gbps: f64,
}

impl AggregationReport {
    /// Portion of the job throughput aggregated at the root (PS-side)
    /// switch — the y-axis of Fig. 14. Equals `min(A_root, C) / C`, so with
    /// PAT ratio `x = A/C ≤ 1` the theoretical curve is `y = x`.
    pub fn aggregation_ratio(&self) -> f64 {
        if self.rate_gbps <= 0.0 {
            return 0.0;
        }
        self.switch_aggregated
            .last()
            .map(|&(_, a)| a / self.rate_gbps)
            .unwrap_or(0.0)
    }

    /// Traffic on one link, in Gbps (0 if the job does not use it).
    pub fn traffic_on(&self, link: LinkId) -> f64 {
        self.link_traffic
            .iter()
            .find(|&&(l, _)| l == link)
            .map(|&(_, t)| t)
            .unwrap_or(0.0)
    }
}

/// Evaluate the paper's per-switch aggregation model (Table 1) bottom-up
/// for a single job streaming at `rate_gbps` per worker, with per-switch
/// PAT given by `pat_of`.
///
/// Per switch with PAT `A`, incoming subtree flows `Σnᵢ`, and rate `C`:
///
/// * `A ≥ C` — everything aggregates: 1 output flow carrying `C`;
/// * `A < C` — `A` aggregates, `(C − A)·Σnᵢ` passes through: `Σnᵢ` output
///   flows carrying `A + (C − A)·Σnᵢ`.
///
/// A switch aggregates only if the job has INA enabled.
///
/// # Example
///
/// See the crate-level example, which reproduces the Fig. 5 flow leaps.
pub fn single_job_report<F: Fn(RackId) -> f64>(
    cluster: &Cluster,
    hierarchy: &JobHierarchy,
    rate_gbps: f64,
    pat_of: F,
) -> AggregationReport {
    assert!(
        rate_gbps.is_finite() && rate_gbps >= 0.0,
        "rate must be non-negative and finite"
    );
    let ina = hierarchy.ina_enabled();
    let aggregates = |r: RackId| ina && pat_of(r) >= rate_gbps;

    let mut link_traffic: Vec<(LinkId, f64)> = Vec::new();
    let mut switch_aggregated: Vec<(RackId, f64)> = Vec::new();
    let push = |link: LinkId, t: f64, acc: &mut Vec<(LinkId, f64)>| {
        if let Some(e) = acc.iter_mut().find(|(l, _)| *l == link) {
            e.1 += t;
        } else {
            acc.push((link, t));
        }
    };

    // Worker access links.
    for &(s, w) in hierarchy.worker_servers() {
        push(
            LinkId::ServerAccess(s),
            w as f64 * rate_gbps,
            &mut link_traffic,
        );
    }

    // Leaf (remote-rack) switches.
    let ps_rack = hierarchy.ps_rack();
    let mut fc = 0u32;
    let mut core_traffic = 0.0f64;
    for &(rack, workers) in hierarchy.remote_racks() {
        let n = workers as u32;
        let a = if ina {
            pat_of(rack).min(rate_gbps)
        } else {
            0.0
        };
        switch_aggregated.push((rack, a));
        let (out_flows, out_traffic) = if aggregates(rack) {
            (1u32, rate_gbps)
        } else {
            (n, a + (rate_gbps - a) * n as f64)
        };
        fc += out_flows;
        core_traffic += out_traffic;
        push(LinkId::RackUplink(rack), out_traffic, &mut link_traffic);
    }
    if fc > 0 {
        push(LinkId::RackUplink(ps_rack), core_traffic, &mut link_traffic);
    }

    // Root switch (PS rack). Its subtree flows are whatever arrives from
    // the core plus the local workers (Table 1 with the current flow set).
    let root_in_flows = fc + hierarchy.local_workers() as u32;
    let a_root = if ina {
        pat_of(ps_rack).min(rate_gbps)
    } else {
        0.0
    };
    switch_aggregated.push((ps_rack, a_root));
    let (fs, root_traffic) = if aggregates(ps_rack) {
        (1u32, rate_gbps)
    } else {
        (
            root_in_flows,
            a_root + (rate_gbps - a_root) * root_in_flows as f64,
        )
    };
    push(
        LinkId::ServerAccess(hierarchy.ps_server()),
        root_traffic,
        &mut link_traffic,
    );

    debug_assert!(link_traffic
        .iter()
        .all(|&(l, _)| l.index(cluster) < cluster.num_links()));

    AggregationReport {
        fs,
        fc,
        link_traffic,
        switch_aggregated,
        rate_gbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;
    use netpack_topology::{ClusterSpec, ServerId};

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 4,
            servers_per_rack: 2,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        })
    }

    /// Fig. 5: 2 workers in each of 4 racks, PS in rack 1, PATs
    /// A1 < Ap < A3 < A4.
    fn fig5(c: &Cluster) -> JobHierarchy {
        let p = Placement::new(
            vec![
                (ServerId(0), 2),
                (ServerId(2), 2),
                (ServerId(4), 2),
                (ServerId(6), 2),
            ],
            Some(ServerId(3)),
        );
        JobHierarchy::from_placement(c, &p).unwrap()
    }

    fn fig5_pats(r: RackId) -> f64 {
        match r.0 {
            0 => 10.0, // A1
            1 => 20.0, // Ap
            2 => 30.0, // A3
            _ => 40.0, // A4
        }
    }

    #[test]
    fn fig5_flow_series_reproduces_paper_leaps() {
        let c = cluster();
        let h = fig5(&c);
        // (rate, expected FC, expected FS) following Fig. 5b.
        let cases = [
            (5.0, 3, 1),  // below every PAT
            (15.0, 4, 1), // above A1 only: rack0 emits 2, root still aggregates
            (25.0, 4, 6), // above A1 and Ap: root passes 4 + 2 local through
            (35.0, 5, 7), // above A1, Ap, A3
            (45.0, 6, 8), // above everything
        ];
        for (rate, fc, fs) in cases {
            let rep = single_job_report(&c, &h, rate, fig5_pats);
            assert_eq!(rep.fc, fc, "FC at rate {rate}");
            assert_eq!(rep.fs, fs, "FS at rate {rate}");
        }
    }

    #[test]
    fn fig5_rate_between_a1_and_ap_keeps_root_aggregating_only_if_pat_covers_rate() {
        // At rate 15, Ap = 20 >= 15 so the root *does* aggregate: FS = 1.
        // The previous test assumed the root loses aggregation; check the
        // actual Table-1 semantics here explicitly.
        let c = cluster();
        let h = fig5(&c);
        let rep = single_job_report(&c, &h, 15.0, fig5_pats);
        // rack0 stops aggregating (A1=10 < 15): FC = 2+1+1 = 4.
        assert_eq!(rep.fc, 4);
        // root PAT 20 >= 15: FS = 1.
        assert_eq!(rep.fs, 1);
    }

    #[test]
    fn full_aggregation_traffic_is_one_rate_per_link() {
        let c = cluster();
        let h = fig5(&c);
        let rep = single_job_report(&c, &h, 5.0, |_| 1000.0);
        assert_eq!(rep.traffic_on(LinkId::ServerAccess(ServerId(0))), 10.0);
        assert_eq!(rep.traffic_on(LinkId::RackUplink(RackId(0))), 5.0);
        // PS rack uplink: three aggregated streams inbound.
        assert_eq!(rep.traffic_on(LinkId::RackUplink(RackId(1))), 15.0);
        // PS access link: one aggregated stream.
        assert_eq!(rep.traffic_on(LinkId::ServerAccess(ServerId(3))), 5.0);
        assert_eq!(rep.aggregation_ratio(), 1.0);
    }

    #[test]
    fn no_aggregation_traffic_multiplies_by_flows() {
        let c = cluster();
        let h = fig5(&c);
        let rate = 10.0;
        let rep = single_job_report(&c, &h, rate, |_| 0.0);
        // Leaf uplink: 2 unaggregated flows (PAT 0 => a = 0).
        assert_eq!(rep.traffic_on(LinkId::RackUplink(RackId(0))), 20.0);
        // PS access link: 8 flows x rate.
        assert_eq!(rep.traffic_on(LinkId::ServerAccess(ServerId(3))), 80.0);
        assert_eq!(rep.aggregation_ratio(), 0.0);
    }

    #[test]
    fn partial_aggregation_splits_traffic_per_table1() {
        let c = cluster();
        let h = fig5(&c);
        // Rate 15, PAT 10 everywhere: every switch is partial.
        let rep = single_job_report(&c, &h, 15.0, |_| 10.0);
        // Leaf: A + (C-A)*n = 10 + 5*2 = 20.
        assert_eq!(rep.traffic_on(LinkId::RackUplink(RackId(0))), 20.0);
        assert_eq!(rep.fc, 6);
        // Root: inbound 6 + 2 local = 8 flows; 10 + 5*8 = 50.
        assert_eq!(rep.fs, 8);
        assert_eq!(rep.traffic_on(LinkId::ServerAccess(ServerId(3))), 50.0);
        // Fig. 14 ratio: 10/15.
        assert!((rep.aggregation_ratio() - 10.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn ina_disabled_jobs_never_aggregate() {
        let c = cluster();
        let mut h = fig5(&c);
        h.set_ina_enabled(false);
        let rep = single_job_report(&c, &h, 5.0, |_| 1000.0);
        assert_eq!(rep.fs, 8);
        assert!(rep.switch_aggregated.iter().all(|&(_, a)| a == 0.0));
    }

    #[test]
    fn single_rack_job_has_zero_fc() {
        let c = cluster();
        let p = Placement::new(vec![(ServerId(0), 2), (ServerId(1), 2)], Some(ServerId(1)));
        let h = JobHierarchy::from_placement(&c, &p).unwrap();
        let rep = single_job_report(&c, &h, 10.0, |_| 1000.0);
        assert_eq!(rep.fc, 0);
        assert_eq!(rep.fs, 1);
        // PS link carries its 2 worker flows + 1 aggregated stream.
        assert_eq!(rep.traffic_on(LinkId::ServerAccess(ServerId(1))), 30.0);
        assert_eq!(rep.traffic_on(LinkId::RackUplink(RackId(0))), 0.0);
    }

    #[test]
    fn zero_rate_report_is_all_zero() {
        let c = cluster();
        let h = fig5(&c);
        let rep = single_job_report(&c, &h, 0.0, |_| 100.0);
        assert!(rep.link_traffic.iter().all(|&(_, t)| t == 0.0));
        assert_eq!(rep.aggregation_ratio(), 0.0);
    }
}
