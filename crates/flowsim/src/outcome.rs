//! Simulation results and per-job accounting.

use netpack_metrics::{JobRecord, PerfCounters};
use netpack_topology::JobId;

/// One job's lifecycle through the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// The job.
    pub id: JobId,
    /// GPUs the job occupied.
    pub gpus: usize,
    /// Submission time (seconds from trace start).
    pub arrival_s: f64,
    /// Time the placement was enforced and training began.
    pub start_s: f64,
    /// Completion time.
    pub finish_s: f64,
    /// Hypothetical single-GPU, zero-communication runtime (DE numerator).
    pub serial_time_s: f64,
}

impl JobOutcome {
    /// Job completion time: finish minus submission.
    pub fn jct_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }

    /// Queueing delay before the job started.
    pub fn wait_s(&self) -> f64 {
        self.start_s - self.arrival_s
    }

    /// Convert to the metric crate's record form.
    pub fn to_record(self) -> JobRecord {
        JobRecord {
            gpus: self.gpus,
            jct_s: self.jct_s(),
            serial_time_s: self.serial_time_s,
        }
    }
}

/// The full result of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Per-job outcomes for all finished jobs, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs that never finished: oversized for the cluster, still running
    /// or queued at the time cap, or stalled with no finite event left.
    /// Sorted by id; each id appears at most once.
    pub unfinished: Vec<JobId>,
    /// Time the last event was processed.
    pub makespan_s: f64,
    /// Integral of allocated GPUs over time, in GPU-seconds.
    pub gpu_seconds: f64,
    /// Event-loop work counters and phase timers for this run (`sim.rs`'s
    /// module docs list them). The `wf_*` counters are
    /// the warm estimator's: over NetPack that is the one estimator
    /// placement and simulation share, so `wf_pushes` / `wf_removes`
    /// include the pops and re-pushes of selective-INA reconciliation, not
    /// only arrivals and completions.
    pub perf: PerfCounters,
}

/// Equality covers the simulation *outputs* only — `perf` holds
/// wall-clock timers, which are nondeterministic by nature and must not
/// break replay-determinism or mode-equivalence comparisons.
impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes
            && self.unfinished == other.unfinished
            && self.makespan_s == other.makespan_s
            && self.gpu_seconds == other.gpu_seconds
    }
}

impl SimResult {
    /// Average JCT over finished jobs (`None` if nothing finished).
    pub fn average_jct_s(&self) -> Option<f64> {
        netpack_metrics::average_jct_s(&self.records())
    }

    /// The paper's distribution-efficiency metric over finished jobs.
    pub fn distribution_efficiency(&self) -> Option<f64> {
        netpack_metrics::distribution_efficiency(&self.records())
    }

    /// Metric records for all finished jobs.
    pub fn records(&self) -> Vec<JobRecord> {
        self.outcomes.iter().map(|o| o.to_record()).collect()
    }

    /// Mean cluster GPU utilization over the makespan, given the cluster's
    /// total GPU count. `None` when nothing ran.
    pub fn gpu_utilization(&self, total_gpus: usize) -> Option<f64> {
        if self.makespan_s <= 0.0 || total_gpus == 0 {
            return None;
        }
        Some(self.gpu_seconds / (self.makespan_s * total_gpus as f64))
    }

    /// 95th-percentile JCT over finished jobs (`None` if nothing finished).
    pub fn p95_jct_s(&self) -> Option<f64> {
        if self.outcomes.is_empty() {
            return None;
        }
        let jcts: Vec<f64> = self.outcomes.iter().map(|o| o.jct_s()).collect();
        Some(netpack_metrics::Summary::of(&jcts).p95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors_compute_intervals() {
        let o = JobOutcome {
            id: JobId(1),
            gpus: 4,
            arrival_s: 10.0,
            start_s: 60.0,
            finish_s: 110.0,
            serial_time_s: 160.0,
        };
        assert_eq!(o.jct_s(), 100.0);
        assert_eq!(o.wait_s(), 50.0);
        let r = o.to_record();
        assert_eq!(r.gpus, 4);
        assert_eq!(r.jct_s, 100.0);
    }

    #[test]
    fn empty_result_has_no_metrics() {
        let r = SimResult::default();
        assert_eq!(r.average_jct_s(), None);
        assert_eq!(r.distribution_efficiency(), None);
    }
}

#[cfg(test)]
mod utilization_tests {
    use super::*;

    #[test]
    fn utilization_divides_gpu_seconds_by_capacity_time() {
        let r = SimResult {
            makespan_s: 100.0,
            gpu_seconds: 400.0,
            ..SimResult::default()
        };
        assert_eq!(r.gpu_utilization(8), Some(0.5));
        assert_eq!(r.gpu_utilization(0), None);
        assert_eq!(SimResult::default().gpu_utilization(8), None);
    }

    #[test]
    fn p95_jct_uses_the_jct_distribution() {
        let mk = |jct: f64| JobOutcome {
            id: JobId(0),
            gpus: 1,
            arrival_s: 0.0,
            start_s: 0.0,
            finish_s: jct,
            serial_time_s: jct,
        };
        let r = SimResult {
            outcomes: (1..=100).map(|i| mk(i as f64)).collect(),
            ..SimResult::default()
        };
        let p95 = r.p95_jct_s().unwrap();
        assert!((p95 - 95.05).abs() < 0.1, "p95 {p95}");
        assert_eq!(SimResult::default().p95_jct_s(), None);
    }
}
