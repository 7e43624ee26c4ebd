//! The distributed-training job abstraction.

use crate::ModelKind;
use netpack_topology::JobId;

/// A distributed-training job as submitted to the NetPack job manager
/// (Fig. 4 step 1): a model, a dataset (implied by the model's calibration),
/// and a GPU requirement.
///
/// Each GPU hosts one worker (the paper's testbed runs one worker per GPU),
/// so `gpus` doubles as the worker count `n^(j)` of the formulation in
/// Table 2. `value` is the user-specified importance consumed by NetPack's
/// knapsack job-subset selection (Algorithm 2 step 1); the job manager ages
/// it to prevent starvation.
///
/// # Example
///
/// ```
/// use netpack_workload::{Job, ModelKind};
/// use netpack_topology::JobId;
///
/// let job = Job::builder(JobId(1), ModelKind::Vgg16, 8)
///     .iterations(500)
///     .arrival_s(12.0)
///     .value(2.0)
///     .build();
/// assert_eq!(job.gpus, 8);
/// assert!(job.serial_time_s() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique identifier.
    pub id: JobId,
    /// The DNN model being trained.
    pub model: ModelKind,
    /// GPU requirement (= worker count, `g^(j)` in Table 2).
    pub gpus: usize,
    /// Total training iterations.
    pub iterations: u64,
    /// Submission time in seconds from trace start.
    pub arrival_s: f64,
    /// User-specified importance for the knapsack subset selection.
    pub value: f64,
}

impl Job {
    /// Start building a job with the three mandatory fields.
    pub fn builder(id: JobId, model: ModelKind, gpus: usize) -> JobBuilder {
        JobBuilder {
            job: Job {
                id,
                model,
                gpus,
                iterations: 100,
                arrival_s: 0.0,
                value: 1.0,
            },
        }
    }

    /// Gradient volume each worker streams per iteration, in gigabits
    /// (`d^(j)` in Table 2).
    pub fn gradient_gbits(&self) -> f64 {
        self.model.gradient_gbits()
    }

    /// Per-iteration computation time on each worker, in seconds.
    ///
    /// Data parallelism splits the global batch across workers, so the
    /// per-worker compute time is the single-GPU time regardless of scale;
    /// what scaling buys is fewer samples per worker per iteration, i.e.
    /// wall-clock progress `gpus`-times faster when communication is free.
    pub fn compute_time_s(&self) -> f64 {
        self.model.compute_time_s()
    }

    /// Wall-clock time this job would need on a single GPU with no
    /// communication at all: the numerator of the paper's Distribution
    /// Efficiency metric (§6.1).
    pub fn serial_time_s(&self) -> f64 {
        self.iterations as f64 * self.gpus as f64 * self.compute_time_s()
    }

    /// Ideal (communication-free) distributed runtime in seconds.
    pub fn ideal_time_s(&self) -> f64 {
        self.iterations as f64 * self.compute_time_s()
    }

    /// Whether this job generates AllReduce network traffic: single-worker
    /// jobs train locally and need no PS (Table 3, constraint 6).
    pub fn is_distributed(&self) -> bool {
        self.gpus > 1
    }
}

/// Builder for [`Job`] (guideline C-BUILDER).
#[derive(Debug, Clone)]
pub struct JobBuilder {
    job: Job,
}

impl JobBuilder {
    /// Set the total number of training iterations (default 100).
    pub fn iterations(mut self, iterations: u64) -> Self {
        self.job.iterations = iterations;
        self
    }

    /// Set the arrival time in seconds from trace start (default 0).
    pub fn arrival_s(mut self, arrival_s: f64) -> Self {
        self.job.arrival_s = arrival_s;
        self
    }

    /// Set the user-specified importance (default 1.0).
    pub fn value(mut self, value: f64) -> Self {
        self.job.value = value;
        self
    }

    /// Finish building the job.
    ///
    /// # Panics
    ///
    /// Panics if the GPU requirement or iteration count is zero, if the
    /// arrival time is negative or non-finite, or if the value is zero,
    /// negative or non-finite.
    pub fn build(self) -> Job {
        assert!(self.job.gpus >= 1, "job needs at least one GPU");
        assert!(self.job.iterations >= 1, "job needs at least one iteration");
        assert!(
            self.job.arrival_s.is_finite() && self.job.arrival_s >= 0.0,
            "arrival time must be non-negative and finite"
        );
        assert!(
            self.job.value.is_finite() && self.job.value > 0.0,
            "job value must be positive and finite"
        );
        self.job
    }
}

/// The Fig. 10 batch: `jobs` jobs with ids `0..jobs`, GPU demands in
/// `1..max_gpus` and models drawn by a xorshift64 stream from `seed`
/// (0 is mapped to 1, the stream's fixed point being 0). One definition
/// shared by the placement-time binaries, the criterion bench and the
/// production ≡ reference tests, so they all place the same batches.
///
/// # Example
///
/// ```
/// let batch = netpack_workload::xorshift_batch(50, 32, 7);
/// assert_eq!(batch.len(), 50);
/// assert!(batch.iter().all(|j| (1..32).contains(&j.gpus)));
/// assert_eq!(batch, netpack_workload::xorshift_batch(50, 32, 7));
/// ```
pub fn xorshift_batch(jobs: usize, max_gpus: usize, seed: u64) -> Vec<Job> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..jobs)
        .map(|i| {
            let gpus = (next() % max_gpus as u64).max(1) as usize;
            let model = ModelKind::ALL[(next() % 6) as usize];
            Job::builder(JobId(i as u64), model, gpus).build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(gpus: usize) -> Job {
        Job::builder(JobId(1), ModelKind::ResNet50, gpus)
            .iterations(10)
            .build()
    }

    #[test]
    fn serial_time_scales_with_gpus_and_iterations() {
        let j = job(4);
        let expected = 10.0 * 4.0 * ModelKind::ResNet50.compute_time_s();
        assert!((j.serial_time_s() - expected).abs() < 1e-12);
        assert!((j.ideal_time_s() - expected / 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_gpu_jobs_are_not_distributed() {
        assert!(!job(1).is_distributed());
        assert!(job(2).is_distributed());
    }

    #[test]
    fn builder_defaults_are_sane() {
        let j = Job::builder(JobId(9), ModelKind::AlexNet, 2).build();
        assert_eq!(j.iterations, 100);
        assert_eq!(j.arrival_s, 0.0);
        assert_eq!(j.value, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpu_jobs_are_rejected() {
        let _ = Job::builder(JobId(1), ModelKind::AlexNet, 0).build();
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iteration_jobs_are_rejected() {
        let _ = Job::builder(JobId(1), ModelKind::AlexNet, 1)
            .iterations(0)
            .build();
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_arrival_is_rejected() {
        let _ = Job::builder(JobId(1), ModelKind::AlexNet, 1)
            .arrival_s(-1.0)
            .build();
    }

    #[test]
    fn gradient_matches_model() {
        let j = job(2);
        assert_eq!(j.gradient_gbits(), ModelKind::ResNet50.gradient_gbits());
    }
}
