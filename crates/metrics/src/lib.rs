#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Evaluation metrics and small statistics helpers for NetPack experiments.
//!
//! Implements the paper's two headline metrics (§6.1):
//!
//! * **Average job completion time (JCT)** — wall-clock from submission to
//!   finish, normalized so that NetPack's value reads 1.0 in each group;
//! * **Distribution efficiency (DE)** —
//!   `(1/|Jobs|) Σ JCT_with_1_GPU / (Real_JCT × No_of_GPUs)`, which isolates
//!   the placement effect from model size: a linearly-scaling system with
//!   zero network overhead would score 1.0.
//!
//! Also provides the summary statistics (mean/std for the paper's error
//! bars), the linear regression used by the Fig. 6 simulator-validation
//! plot, and a plain-text table renderer shared by all figure binaries.

//!
//! Since the placement fast path landed, the crate also hosts the
//! [`PerfCounters`] profiling surface: named counters and phase timers the
//! placer fills while scoring candidates, rendered through the same
//! [`TextTable`] as everything else.

mod hist;
mod perf;
mod regression;
mod stats;
mod sweep;
mod table;

pub use hist::{LatencyHistogram, SUB_BUCKETS};
pub use perf::{PerfCounters, Stopwatch, TimerSlot};
pub use regression::{linear_fit, LinearFit};
pub use stats::{normalize_to, Summary};
pub use sweep::{parallel_sweep, parallel_sweep_with, sweep_threads};
pub use table::TextTable;

/// One finished job's accounting record, the unit every metric consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// GPUs the job occupied.
    pub gpus: usize,
    /// Wall-clock completion time (finish − submission), in seconds.
    pub jct_s: f64,
    /// Hypothetical single-GPU, zero-communication runtime in seconds
    /// (the DE numerator).
    pub serial_time_s: f64,
}

/// Average JCT in seconds over a set of records.
///
/// Returns `None` for an empty set (an empty experiment has no JCT, and
/// silently returning 0.0 would corrupt normalized comparisons).
///
/// # Example
///
/// ```
/// use netpack_metrics::{average_jct_s, JobRecord};
/// let records = [
///     JobRecord { gpus: 1, jct_s: 10.0, serial_time_s: 10.0 },
///     JobRecord { gpus: 2, jct_s: 30.0, serial_time_s: 40.0 },
/// ];
/// assert_eq!(average_jct_s(&records), Some(20.0));
/// assert_eq!(average_jct_s(&[]), None);
/// ```
pub fn average_jct_s(records: &[JobRecord]) -> Option<f64> {
    if records.is_empty() {
        return None;
    }
    Some(records.iter().map(|r| r.jct_s).sum::<f64>() / records.len() as f64)
}

/// Distribution efficiency (§6.1):
/// `(1/|Jobs|) Σ serial_time / (jct × gpus)`.
///
/// Returns `None` for an empty set or if any record has a non-positive JCT.
///
/// # Example
///
/// ```
/// use netpack_metrics::{distribution_efficiency, JobRecord};
/// // Perfect linear scaling: serial = jct * gpus => DE = 1.
/// let perfect = [JobRecord { gpus: 4, jct_s: 25.0, serial_time_s: 100.0 }];
/// assert_eq!(distribution_efficiency(&perfect), Some(1.0));
/// ```
pub fn distribution_efficiency(records: &[JobRecord]) -> Option<f64> {
    if records.is_empty() {
        return None;
    }
    let mut sum = 0.0;
    for r in records {
        if r.jct_s <= 0.0 || r.gpus == 0 {
            return None;
        }
        sum += r.serial_time_s / (r.jct_s * r.gpus as f64);
    }
    Some(sum / records.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn de_penalizes_communication_overhead() {
        // Communication doubles the runtime => DE = 0.5.
        let rec = [JobRecord {
            gpus: 4,
            jct_s: 50.0,
            serial_time_s: 100.0,
        }];
        assert!((distribution_efficiency(&rec).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn de_rejects_degenerate_records() {
        let rec = [JobRecord {
            gpus: 4,
            jct_s: 0.0,
            serial_time_s: 100.0,
        }];
        assert_eq!(distribution_efficiency(&rec), None);
    }

    #[test]
    fn jct_averages_plainly() {
        let rec = [
            JobRecord {
                gpus: 1,
                jct_s: 5.0,
                serial_time_s: 5.0,
            },
            JobRecord {
                gpus: 1,
                jct_s: 15.0,
                serial_time_s: 15.0,
            },
        ];
        assert_eq!(average_jct_s(&rec), Some(10.0));
    }
}
