//! Steady-state estimation under *synchronous* INA — the comparison
//! substrate for statistical INA's cluster-level advantage (§2.2).
//!
//! Synchronous INA (SwitchML-style) statically partitions each ToR's
//! memory into per-job regions reserved for the job's lifetime. We model
//! the naive equal partition (each registered job gets `PAT / n` at each
//! of its switches):
//!
//! * a job **with** a region is always fully aggregated (one flow per
//!   switch output) but can never stream faster than its smallest region
//!   allows — the region is a hard rate cap, with no fallback path;
//! * a job **without** a region (the partition rounds to zero, or the job
//!   was placed with INA disabled) falls back to plain PS AllReduce over
//!   the network: unaggregated flows, no cap.
//!
//! This is deliberately the *uncoordinated* synchronous baseline; a
//! controller like INAlloc would re-partition periodically, trading the
//! control-plane complexity the paper's §2.2 argues against.

use crate::{PlacedJob, SteadyState, EPSILON_GBPS};
use netpack_topology::{Cluster, JobId, RackId};
use std::collections::BTreeMap;

/// Estimate the steady state when the switches run synchronous INA with
/// equal static partitions.
///
/// Shares link bandwidth max-min like [`estimate`](crate::estimate), but
/// switch memory is a static per-job cap instead of a shared pool.
pub fn estimate_synchronous(cluster: &Cluster, jobs: &[PlacedJob]) -> SteadyState {
    let n_links = cluster.num_links();
    let n_servers = cluster.num_servers();
    let n_racks = cluster.num_racks();

    let mut bw: Vec<f64> = Vec::with_capacity(n_links);
    bw.resize(n_servers, cluster.spec().server_link_gbps);
    for r in 0..n_racks {
        bw.push(cluster.racks()[r].uplink_gbps());
    }

    // Static partition: count INA jobs registered at each switch.
    let mut rack_regs = vec![0u32; n_racks];
    for job in jobs {
        for h in job.components() {
            if h.ina_enabled() {
                for r in h.switches() {
                    rack_regs[r.0] += 1;
                }
            }
        }
    }
    let region = |r: RackId| {
        let regs = rack_regs[r.0];
        if regs == 0 {
            0.0
        } else {
            cluster.racks()[r.0].pat_gbps() / f64::from(regs)
        }
    };

    struct Active {
        id: JobId,
        flows: Vec<(usize, u32)>,
        /// Region-induced rate cap (infinite for fallback jobs).
        cap: f64,
        rate: f64,
        frozen: bool,
    }
    let mut job_rates: BTreeMap<JobId, f64> = BTreeMap::new();
    let mut job_shards: BTreeMap<JobId, usize> = BTreeMap::new();
    let mut active: Vec<Active> = Vec::new();
    for job in jobs {
        job_shards.insert(job.id(), job.shards());
        if job.components().is_empty() {
            job_rates.insert(job.id(), f64::INFINITY);
            continue;
        }
        // The job aggregates iff INA is on and every switch grants a
        // non-zero region; otherwise it falls back to host AllReduce.
        let ina = job.components().iter().all(|h| h.ina_enabled());
        let cap = if ina {
            job.components()
                .iter()
                .flat_map(|h| h.switches())
                .map(region)
                .fold(f64::INFINITY, f64::min)
        } else {
            0.0
        };
        let aggregated = cap > EPSILON_GBPS;
        let mut flows: Vec<(usize, u32)> = Vec::new();
        for h in job.components() {
            for (l, f) in h.link_flows(|_| aggregated) {
                let idx = l.index(cluster);
                match flows.iter_mut().find(|(i, _)| *i == idx) {
                    Some(e) => e.1 += f,
                    None => flows.push((idx, f)),
                }
            }
        }
        active.push(Active {
            id: job.id(),
            flows,
            cap: if aggregated { cap } else { f64::INFINITY },
            rate: 0.0,
            frozen: false,
        });
    }

    let mut unfrozen = active.len();
    let max_rounds = 2 * n_links + active.len() + 8;
    for _ in 0..max_rounds {
        if unfrozen == 0 {
            break;
        }
        let mut link_flows_total = vec![0u64; n_links];
        for a in active.iter().filter(|a| !a.frozen) {
            for &(l, f) in &a.flows {
                link_flows_total[l] += u64::from(f);
            }
        }
        let mut delta = f64::INFINITY;
        for l in 0..n_links {
            if link_flows_total[l] > 0 {
                delta = delta.min(bw[l].max(0.0) / link_flows_total[l] as f64);
            }
        }
        for a in active.iter().filter(|a| !a.frozen) {
            if a.cap.is_finite() {
                delta = delta.min(a.cap - a.rate);
            }
        }
        if !delta.is_finite() {
            for a in active.iter_mut().filter(|a| !a.frozen) {
                a.frozen = true;
            }
            break;
        }
        for a in active.iter_mut().filter(|a| !a.frozen) {
            a.rate += delta;
            for &(l, f) in &a.flows {
                bw[l] -= delta * f64::from(f);
            }
        }
        // Freeze at caps and on saturated links.
        for a in active.iter_mut().filter(|a| !a.frozen) {
            let capped = a.cap.is_finite() && a.rate + EPSILON_GBPS >= a.cap;
            let bottlenecked = a.flows.iter().any(|&(l, f)| f > 0 && bw[l] <= EPSILON_GBPS);
            if capped || bottlenecked {
                a.frozen = true;
                unfrozen -= 1;
            }
        }
    }

    let mut link_job_count = vec![0u32; n_links];
    for a in &active {
        job_rates.insert(a.id, a.rate);
        for &(l, f) in &a.flows {
            link_job_count[l] += f;
        }
    }
    SteadyState {
        job_rates,
        job_shards,
        link_residual: bw.into_iter().map(|b| b.max(0.0)).collect(),
        link_flows: link_job_count,
        pat_residual: (0..n_racks)
            .map(|r| {
                // Residual = unpartitioned memory (registration slots are
                // reserved whether or not the job can use them fully).
                if rack_regs[r] == 0 {
                    cluster.racks()[r].pat_gbps()
                } else {
                    0.0
                }
            })
            .collect(),
        num_servers: n_servers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_model::Placement;
    use netpack_topology::{ClusterSpec, ServerId};

    fn cluster(pat: f64, servers: usize) -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: servers,
            gpus_per_server: 4,
            pat_gbps: pat,
            ..ClusterSpec::paper_default()
        })
    }

    fn job(id: u64, c: &Cluster, w: [usize; 2], ps: usize) -> PlacedJob {
        PlacedJob::new(
            JobId(id),
            c,
            &Placement::new(
                vec![(ServerId(w[0]), 1), (ServerId(w[1]), 1)],
                Some(ServerId(ps)),
            ),
        )
    }

    #[test]
    fn lone_job_is_capped_by_its_region() {
        let c = cluster(40.0, 3);
        let s = estimate_synchronous(&c, &[job(0, &c, [0, 1], 2)]);
        // Region = 40 (only registrant); links would allow 100.
        let rate = s.job_rate_gbps(JobId(0)).unwrap();
        assert!((rate - 40.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn partition_halves_with_two_jobs() {
        let c = cluster(40.0, 6);
        let jobs = [job(0, &c, [0, 1], 2), job(1, &c, [3, 4], 5)];
        let s = estimate_synchronous(&c, &jobs);
        for id in [JobId(0), JobId(1)] {
            let rate = s.job_rate_gbps(id).unwrap();
            assert!((rate - 20.0).abs() < 1e-6, "rate {rate}");
        }
        assert_eq!(s.pat_residual_gbps(netpack_topology::RackId(0)), 0.0);
    }

    #[test]
    fn statistical_dominates_synchronous_under_scarce_memory() {
        // The §2.2 claim at estimator level: same jobs, same cluster,
        // statistical INA yields at least the synchronous rate for the
        // worst-off job.
        let c = cluster(40.0, 6);
        let jobs = [job(0, &c, [0, 1], 2), job(1, &c, [3, 4], 5)];
        let stat = crate::estimate(&c, &jobs);
        let sync = estimate_synchronous(&c, &jobs);
        for id in [JobId(0), JobId(1)] {
            let rs = stat.job_rate_gbps(id).unwrap();
            let ry = sync.job_rate_gbps(id).unwrap();
            assert!(rs >= ry - 1e-6, "statistical {rs} < synchronous {ry}");
        }
    }

    #[test]
    fn ina_disabled_jobs_fall_back_unaggregated() {
        let c = cluster(40.0, 3);
        let mut p = Placement::new(vec![(ServerId(0), 1), (ServerId(1), 1)], Some(ServerId(2)));
        p.set_ina_enabled(false);
        let s = estimate_synchronous(&c, &[PlacedJob::new(JobId(0), &c, &p)]);
        // 2 unaggregated flows into the PS link: 50 Gbps, not capped at 40.
        let rate = s.job_rate_gbps(JobId(0)).unwrap();
        assert!((rate - 50.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn zero_pat_synchronous_degrades_to_host_allreduce() {
        let c = cluster(0.0, 3);
        let s = estimate_synchronous(&c, &[job(0, &c, [0, 1], 2)]);
        let rate = s.job_rate_gbps(JobId(0)).unwrap();
        // No region => fallback: 2 flows on the PS link => 50.
        assert!((rate - 50.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn local_jobs_are_unaffected() {
        let c = cluster(40.0, 3);
        let local = PlacedJob::new(JobId(0), &c, &Placement::local(ServerId(0), 4));
        let s = estimate_synchronous(&c, &[local]);
        assert_eq!(s.job_rate_gbps(JobId(0)), Some(f64::INFINITY));
    }
}
