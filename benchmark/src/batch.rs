//! `warehouse_batch` and `dense_batch`: stateless `place_batch` calls on
//! an empty cluster, the Fig. 10 measurement at its two extremes.

use crate::adapter::{self, BatchOutcome, Cluster, ClusterSpec, Job, NetPackPlacer};
use crate::sys::{median, now_ns};
use crate::workload::{Tally, Workload};

/// One batch shape on one cluster shape. A run draws `inputs` batches
/// from its seed and places them in turn, one per repetition, so that a
/// run's medians describe the typical batch and not one draw (single
/// 100-job warehouse batches differ by 12 % in wall time).
pub struct BatchWorkload {
    spec: ClusterSpec,
    jobs: usize,
    inputs: usize,
    /// Batches placed in each set-up's warm-up.
    warmups: usize,
    seed: u64,
    cluster: Option<Cluster>,
    placer: NetPackPlacer,
    batches: Vec<Vec<Job>>,
    /// The outcome of each input's first placement. Later placements of
    /// the same batch on the same empty cluster repeat it.
    first: Vec<Option<BatchOutcome>>,
}

impl BatchWorkload {
    /// 100 jobs on the 50 176-server three-tier fat-tree (`fig10_xl`):
    /// the candidate scan over servers dominates. ~0.09 s a batch.
    pub fn warehouse(seed: u64) -> Self {
        Self::new(adapter::warehouse_spec(), 100, 20, 5, seed)
    }

    /// 400 jobs on 10 000 servers, a Fig. 10 cell: few server classes,
    /// many contending jobs; PS scoring and water-filling are 83 % of a
    /// batch. ~0.55 s a batch. (The 800-job cell has the same profile at
    /// 91 %, but costs 2.1 s a batch, differs by 8 % between draws and is
    /// 40 % cheaper for one draw in ten: too few, too uneven repetitions.)
    pub fn dense(seed: u64) -> Self {
        Self::new(adapter::scaled_spec(10_000), 400, 24, 1, seed)
    }

    fn new(spec: ClusterSpec, jobs: usize, inputs: usize, warmups: usize, seed: u64) -> Self {
        BatchWorkload {
            spec,
            jobs,
            inputs,
            warmups,
            seed,
            cluster: None,
            placer: adapter::placer_new(Some(1)),
            batches: Vec::new(),
            first: Vec::new(),
        }
    }

    /// The `i`-th Fig. 10 batch of a run (the figures use generator seed 7).
    pub fn batch_for(jobs: usize, seed: u64, i: usize) -> Vec<Job> {
        adapter::xorshift_batch(jobs, 32, 7 + 1_000 * seed + i as u64)
    }

    /// Place input `i`; returns its wall seconds. Keeps the outcome if it
    /// is the input's first.
    fn place(&mut self, i: usize) -> (f64, usize) {
        let cluster = self.cluster.as_ref().expect("setup ran");
        let start = now_ns();
        let outcome = adapter::placer_place_batch(&mut self.placer, cluster, &self.batches[i]);
        let wall_s = (now_ns() - start) as f64 / 1e9;
        let deferred = outcome.deferred.len();
        self.first[i].get_or_insert(outcome);
        (wall_s, deferred)
    }
}

/// placed + deferred == offered, every placement covers its job's GPUs,
/// and no server holds more workers than it has GPUs.
pub fn check_outcome(cluster: &Cluster, batch: &[Job], outcome: &BatchOutcome, tally: &mut Tally) {
    let (per_server, _) = adapter::cluster_shape(cluster);
    tally.check(
        outcome.placed.len() + outcome.deferred.len() == batch.len(),
        || {
            format!(
                "placed {} + deferred {} != offered {}",
                outcome.placed.len(),
                outcome.deferred.len(),
                batch.len()
            )
        },
    );
    let mut used = std::collections::BTreeMap::new();
    for (job, placement) in &outcome.placed {
        let workers: usize = placement.workers().iter().map(|&(_, w)| w).sum();
        tally.check(workers == job.gpus, || {
            format!("job {}: {workers} workers for {} GPUs", job.id, job.gpus)
        });
        for &(server, w) in placement.workers() {
            *used.entry(server).or_insert(0usize) += w;
        }
    }
    let over = used.values().filter(|&&w| w > per_server).count();
    tally.check(over == 0, || format!("{over} servers over capacity"));
}

/// Σ comm and Σ (compute + comm) per iteration over the placed jobs,
/// under a from-scratch Algorithm 1 solve of the whole batch.
pub fn batch_quality(cluster: &Cluster, outcome: &BatchOutcome) -> (f64, f64) {
    let placed: Vec<_> = outcome
        .placed
        .iter()
        .map(|(job, p)| adapter::placed_job(job.id, cluster, p))
        .collect();
    let state = adapter::waterfill_estimate(cluster, &placed);
    let (mut comm_s, mut iteration_s) = (0.0f64, 0.0f64);
    for (job, _) in &outcome.placed {
        let comm =
            adapter::comm_time_s(&state, job.id, job.gradient_gbits()).unwrap_or(f64::INFINITY);
        comm_s += comm;
        iteration_s += comm + job.compute_time_s();
    }
    (comm_s, iteration_s)
}

impl Workload for BatchWorkload {
    fn setup(&mut self, tally: &mut Tally) {
        self.cluster = Some(adapter::cluster_new(self.spec.clone()));
        self.placer = adapter::placer_new(Some(1));
        self.batches = (0..self.inputs)
            .map(|i| Self::batch_for(self.jobs, self.seed, i))
            .collect();
        self.first = vec![None; self.inputs];
        for i in 0..self.warmups {
            let (_, deferred) = self.place(i);
            tally.check(deferred == 0, || "warm-up deferred jobs".to_string());
        }
    }

    fn repetition(&mut self, rep: usize, tally: &mut Tally) -> f64 {
        let (wall_s, deferred) = self.place(rep % self.inputs);
        tally.attempted += self.jobs as u64;
        tally.failed += deferred as u64;
        wall_s
    }

    fn conclude(&mut self, walls_s: &[f64], tally: &mut Tally) {
        tally.latency_p50_ms = median(walls_s) * 1e3;
        tally.info("latency_samples", walls_s.len());
        // Inputs the timed region did not reach are placed now, so the
        // quality metric depends on the seed alone.
        for i in 0..self.inputs {
            if self.first[i].is_none() {
                self.place(i);
            }
        }
        let cluster = self.cluster.as_ref().expect("setup ran");
        let (mut comm_s, mut iteration_s) = (0.0f64, 0.0f64);
        for (batch, outcome) in self.batches.iter().zip(self.first.iter().flatten()) {
            check_outcome(cluster, batch, outcome, tally);
            let (c, t) = batch_quality(cluster, outcome);
            comm_s += c;
            iteration_s += t;
        }
        tally.comm_overhead_ratio = comm_s / iteration_s;
        tally.info("quality_batches", self.inputs);
        let perf = adapter::placer_perf(&self.placer);
        let (rounds, scored) = (perf.counter("spec_rounds"), perf.counter("spec_scored"));
        tally.check(rounds == scored, || {
            format!("1-worker run speculated: rounds {rounds} != scored {scored}")
        });
    }

    fn jobs_per_repetition(&self) -> f64 {
        self.jobs as f64
    }

    fn min_repetitions(&self) -> usize {
        self.inputs.min(4)
    }
}
