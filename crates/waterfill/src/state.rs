//! The converged steady state produced by the estimator.

use crate::EPSILON_GBPS;
use netpack_topology::{Cluster, JobId, LinkId, RackId, ServerId};
use std::collections::BTreeMap;

/// The converged max-min steady state of a set of placed jobs.
///
/// Produced by [`estimate`](crate::estimate). All residuals are reported
/// under the one-big-switch link layout (`LinkId::index`).
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    pub(crate) job_rates: BTreeMap<JobId, f64>,
    pub(crate) job_shards: BTreeMap<JobId, usize>,
    pub(crate) link_residual: Vec<f64>,
    pub(crate) link_flows: Vec<u32>,
    pub(crate) pat_residual: Vec<f64>,
    pub(crate) num_servers: usize,
}

impl SteadyState {
    /// The per-worker steady streaming rate of a job, in Gbps.
    ///
    /// Local (single-server) jobs report `f64::INFINITY` — they have no
    /// communication phase at all. Unknown jobs report `None`.
    pub fn job_rate_gbps(&self, job: JobId) -> Option<f64> {
        self.job_rates.get(&job).copied()
    }

    /// Number of gradient shards (parameter servers) of a job.
    pub fn job_shards(&self, job: JobId) -> Option<usize> {
        self.job_shards.get(&job).copied().or_else(|| {
            // Jobs recorded before sharding existed default to one shard.
            self.job_rates.contains_key(&job).then_some(1)
        })
    }

    /// Iteration communication time in seconds for a job streaming
    /// `gradient_gbits` per worker per iteration; zero for local jobs.
    ///
    /// For sharded (multi-PS) jobs the gradient is split evenly across the
    /// shards, each carried by its own tree at the reported rate, so the
    /// time is `gradient / (shards × rate)`.
    pub fn comm_time_s(&self, job: JobId, gradient_gbits: f64) -> Option<f64> {
        let rate = self.job_rate_gbps(job)?;
        if rate.is_infinite() {
            return Some(0.0);
        }
        if rate <= 0.0 {
            return Some(f64::INFINITY);
        }
        let shards = self.job_shards(job).unwrap_or(1).max(1) as f64;
        Some(gradient_gbits / (shards * rate))
    }

    /// Residual (unallocated) bandwidth on a link, in Gbps.
    pub fn link_residual_gbps(&self, link: LinkId, cluster: &Cluster) -> f64 {
        self.link_residual[link.index(cluster)]
    }

    /// Number of steady-state flows on a link (all jobs, converged view).
    pub fn link_flows(&self, link: LinkId, cluster: &Cluster) -> u32 {
        self.link_flows[link.index(cluster)]
    }

    /// Residual PAT of a rack's ToR switch, in Gbps.
    pub fn pat_residual_gbps(&self, rack: RackId) -> f64 {
        self.pat_residual[rack.0]
    }

    /// Whether a rack's ToR switch still has aggregation headroom.
    pub fn rack_aggregating(&self, rack: RackId) -> bool {
        self.pat_residual[rack.0] > EPSILON_GBPS
    }

    /// Available bandwidth on a server's access link (`s.bw̄` in the
    /// paper's server-valuation heuristic).
    pub fn server_available_gbps(&self, server: ServerId) -> f64 {
        self.link_residual[server.0]
    }

    /// Steady-state flow count on a server's access link (`s.flows`).
    pub fn server_flows(&self, server: ServerId) -> u32 {
        self.link_flows[server.0]
    }

    /// [`server_available_gbps`](Self::server_available_gbps) for every
    /// server, indexed by server id — the bulk view O(servers) scans diff.
    pub fn servers_available_gbps(&self) -> &[f64] {
        &self.link_residual[..self.num_servers]
    }

    /// [`server_flows`](Self::server_flows) for every server, by server id.
    pub fn servers_flows(&self) -> &[u32] {
        &self.link_flows[..self.num_servers]
    }

    /// Steady-state flow count on every rack uplink, indexed by rack id.
    pub fn rack_uplinks_flows(&self) -> &[u32] {
        &self.link_flows[self.num_servers..]
    }

    /// Number of jobs the estimate covers.
    pub fn num_jobs(&self) -> usize {
        self.job_rates.len()
    }

    /// Test oracle: the first field on which `self` and `other` differ
    /// **bitwise** (rates, shards, residuals, flow counts, PAT), or `None`
    /// when they are the same state to the last bit — what the warm
    /// estimator owes a from-scratch [`estimate`](crate::estimate).
    #[doc(hidden)]
    pub fn first_difference(&self, other: &SteadyState) -> Option<&'static str> {
        fn bits(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
            v.iter().map(|x| x.to_bits())
        }
        fn rates(s: &SteadyState) -> impl Iterator<Item = (JobId, u64)> + '_ {
            s.job_rates.iter().map(|(&id, r)| (id, r.to_bits()))
        }
        if !rates(self).eq(rates(other)) {
            Some("job_rates")
        } else if self.job_shards != other.job_shards {
            Some("job_shards")
        } else if !bits(&self.link_residual).eq(bits(&other.link_residual)) {
            Some("link_residual")
        } else if self.link_flows != other.link_flows {
            Some("link_flows")
        } else if !bits(&self.pat_residual).eq(bits(&other.pat_residual)) {
            Some("pat_residual")
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_state() -> SteadyState {
        SteadyState {
            job_rates: BTreeMap::from([(JobId(0), 25.0), (JobId(1), f64::INFINITY)]),
            job_shards: BTreeMap::from([(JobId(0), 1), (JobId(1), 1)]),
            link_residual: vec![50.0, 0.0, 100.0],
            link_flows: vec![1, 3, 0],
            pat_residual: vec![10.0, 0.0],
            num_servers: 2,
        }
    }

    #[test]
    fn comm_time_divides_gradient_by_rate() {
        let s = tiny_state();
        assert_eq!(s.comm_time_s(JobId(0), 50.0), Some(2.0));
        assert_eq!(s.comm_time_s(JobId(1), 50.0), Some(0.0));
        assert_eq!(s.comm_time_s(JobId(9), 50.0), None);
    }

    #[test]
    fn server_accessors_index_access_links() {
        let s = tiny_state();
        assert_eq!(s.server_available_gbps(ServerId(0)), 50.0);
        assert_eq!(s.server_available_gbps(ServerId(1)), 0.0);
        assert_eq!(s.server_flows(ServerId(1)), 3);
    }

    #[test]
    fn rack_aggregating_uses_epsilon() {
        let s = tiny_state();
        assert!(s.rack_aggregating(RackId(0)));
        assert!(!s.rack_aggregating(RackId(1)));
    }

    #[test]
    fn zero_rate_job_has_infinite_comm_time() {
        let mut s = tiny_state();
        s.job_rates.insert(JobId(2), 0.0);
        assert_eq!(s.comm_time_s(JobId(2), 1.0), Some(f64::INFINITY));
    }
}
