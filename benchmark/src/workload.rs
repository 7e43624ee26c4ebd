//! The shape every workload has, and the loop that measures it.
//!
//! A run is `SETUP_REPS` set-ups (input generation, construction of the
//! program's objects, warm-up repetitions), then timed repetitions until
//! `--seconds` have passed, then untimed quality and output checks. Every
//! timing reported is a median over repetitions, divided by the run's
//! host-speed factor (see `calib.rs`).

use crate::calib;
use crate::sys::{cpu_s, median, now_s, peak_rss_mb};
use std::fmt::Display;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// The reference kernel runs before a repetition when this long has
/// passed since it last ran.
const KERNEL_EVERY_S: f64 = 0.75;

/// What a run accumulates besides repetition wall times.
#[derive(Default)]
pub struct Tally {
    /// Operations offered to the program in the timed region, and how
    /// many of them it refused, deferred or left unfinished.
    pub attempted: u64,
    pub failed: u64,
    /// Set by the workload in `conclude`.
    pub latency_p50_ms: f64,
    pub comm_overhead_ratio: f64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Facts printed for the reader, not compared.
    pub notes: Vec<(String, String)>,
}

impl Tally {
    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }

    pub fn info(&mut self, key: &str, value: impl Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

pub trait Workload {
    /// Build inputs and program objects from the seed and run the warm-up.
    /// Called `SETUP_REPS` times; each call replaces what the last built.
    fn setup(&mut self, tally: &mut Tally);
    /// One timed repetition. Returns its wall seconds.
    fn repetition(&mut self, rep: usize, tally: &mut Tally) -> f64;
    /// Untimed: latency and quality metrics, the expensive output checks.
    /// `walls_s` are the wall seconds of the timed repetitions.
    fn conclude(&mut self, walls_s: &[f64], tally: &mut Tally);
    /// Jobs offered per repetition (the numerator of `jobs_per_s`).
    fn jobs_per_repetition(&self) -> f64;
    /// Fewest timed repetitions, whatever `--seconds` says.
    fn min_repetitions(&self) -> usize;
}

/// The six end-to-end metrics of one run, plus its bookkeeping.
pub struct EndToEnd {
    pub jobs_per_s: f64,
    pub latency_p50_ms: f64,
    pub cpu_s_per_kjob: f64,
    pub comm_overhead_ratio: f64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    pub repetitions: usize,
    pub timed_s: f64,
    /// Median reference-kernel time over nominal: above 1 on a slow host.
    pub host_factor: f64,
    /// `jobs_per_s` before the correction.
    pub raw_jobs_per_s: f64,
    pub tally: Tally,
}

/// Measure `workload` for `seconds`. The first set-up is timed from
/// process start, so process start and argument parsing count as set-up.
pub fn measure(workload: &mut dyn Workload, seconds: f64) -> EndToEnd {
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kernels = Vec::new();
    let mut from = 0.0;
    for _ in 0..SETUP_REPS {
        workload.setup(&mut tally);
        setups.push(now_s() - from);
        kernels.push(calib::kernel());
        from = now_s();
    }

    let timed_start = now_s();
    let (mut walls, mut timed_cpu_s) = (Vec::new(), 0.0);
    let mut last_kernel = now_s();
    while walls.len() < workload.min_repetitions() || now_s() - timed_start < seconds {
        if now_s() - last_kernel >= KERNEL_EVERY_S {
            kernels.push(calib::kernel());
            last_kernel = now_s();
        }
        let cpu_start = cpu_s();
        let wall = workload.repetition(walls.len(), &mut tally);
        timed_cpu_s += cpu_s() - cpu_start;
        walls.push(wall);
    }
    let timed_s = now_s() - timed_start;
    let host_factor = median(&kernels) / calib::NOMINAL_S;

    workload.conclude(&walls, &mut tally);
    let jobs = workload.jobs_per_repetition();
    let raw_jobs_per_s = jobs / median(&walls);
    EndToEnd {
        jobs_per_s: raw_jobs_per_s * host_factor,
        latency_p50_ms: tally.latency_p50_ms / host_factor,
        cpu_s_per_kjob: timed_cpu_s / (jobs * walls.len() as f64 / 1e3) / host_factor,
        comm_overhead_ratio: tally.comm_overhead_ratio,
        peak_rss_mb: peak_rss_mb(),
        setup_s: median(&setups) / host_factor,
        repetitions: walls.len(),
        timed_s,
        host_factor,
        raw_jobs_per_s,
        tally,
    }
}
