//! Per-job statistics collected by the packet simulator.

use netpack_metrics::PerfCounters;
use netpack_topology::JobId;

/// Statistics of one job over a packet-simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStats {
    /// The job.
    pub id: JobId,
    /// `(job, PSN)` groups that aggregated in the switch.
    pub aggregated_groups: u64,
    /// Groups that fell back to the PS unaggregated (hash collision or
    /// exhausted memory).
    pub fallback_groups: u64,
    /// Gradient payload acknowledged end-to-end, in bits.
    pub goodput_bits: f64,
    /// Iterations completed within the run.
    pub iterations_done: u64,
    /// Completion time of the job's final iteration, if it finished.
    pub finish_s: Option<f64>,
    /// Goodput time series: `(bucket end time, Gbps over the bucket)`.
    pub goodput_series: Vec<(f64, f64)>,
}

impl JobStats {
    /// Portion of `(job, PSN)` groups aggregated in-network — the y-axis
    /// of the paper's Fig. 14. Returns 0 when nothing was sent.
    pub fn aggregation_ratio(&self) -> f64 {
        let total = self.aggregated_groups + self.fallback_groups;
        if total == 0 {
            return 0.0;
        }
        self.aggregated_groups as f64 / total as f64
    }

    /// Mean goodput over the run, in Gbps.
    pub fn mean_goodput_gbps(&self, duration_s: f64) -> f64 {
        if duration_s <= 0.0 {
            return 0.0;
        }
        self.goodput_bits / duration_s / 1e9
    }
}

/// The result of one packet-simulation run.
#[derive(Debug, Clone, Default)]
pub struct PacketSimReport {
    /// Per-job statistics, in registration order.
    pub per_job: Vec<JobStats>,
    /// RTT rounds simulated.
    pub rounds: u64,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Work counters and the wall-clock timer for the run: rounds
    /// simulated, packets modeled, and the `run` timer.
    pub perf: PerfCounters,
}

/// Equality covers the simulation *outputs* only: `perf` holds a
/// wall-clock timer, which differs between two runs of the same
/// simulation.
impl PartialEq for PacketSimReport {
    fn eq(&self, other: &Self) -> bool {
        self.per_job == other.per_job
            && self.rounds == other.rounds
            && self.duration_s == other.duration_s
    }
}

impl PacketSimReport {
    /// Look up one job's statistics.
    pub fn job(&self, id: JobId) -> Option<&JobStats> {
        self.per_job.iter().find(|s| s.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_ratio_divides_groups() {
        let s = JobStats {
            id: JobId(0),
            aggregated_groups: 30,
            fallback_groups: 10,
            goodput_bits: 1e9,
            iterations_done: 1,
            finish_s: None,
            goodput_series: Vec::new(),
        };
        assert!((s.aggregation_ratio() - 0.75).abs() < 1e-12);
        assert!((s.mean_goodput_gbps(2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = JobStats {
            id: JobId(0),
            aggregated_groups: 0,
            fallback_groups: 0,
            goodput_bits: 0.0,
            iterations_done: 0,
            finish_s: None,
            goodput_series: Vec::new(),
        };
        assert_eq!(s.aggregation_ratio(), 0.0);
        assert_eq!(s.mean_goodput_gbps(0.0), 0.0);
    }
}
