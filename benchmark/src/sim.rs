//! `sim_sweep`: the Fig. 9 simulator sweep, `Real` traces replayed to
//! completion on clusters of growing size.

use crate::adapter::{self, SimResult, Trace};
use crate::sys::{median, now_ns};
use crate::workload::{Tally, Workload};

/// Servers per cell; every trace is generated against the first.
pub const SIZES: [usize; 4] = [256, 1_024, 4_096, 10_000];
/// Jobs per trace (the paper replays 4K).
pub const JOBS: usize = 4_000;
/// Traces per run. A repetition is one sweep over `SIZES`, every cell on
/// a trace of its own: the wall time of a cell differs by 10-20 % between
/// traces, and the four sizes of one trace move together, so a trace per
/// cell is what makes a run's median steady across seeds.
const TRACES: usize = 24;
/// Sweeps every run makes, and whose outcomes give the quality metric, so
/// that it depends on the seed alone and not on how many sweeps fitted.
const MIN_SWEEPS: usize = 3;

pub struct SimSweep {
    seed: u64,
    traces: Vec<Trace>,
    /// Sweeps counted into the two sums below.
    scored_sweeps: usize,
    /// Σ ideal (communication-free) run time and Σ simulated run time,
    /// start to finish, of the jobs of the first `MIN_SWEEPS` sweeps.
    ideal_s: f64,
    ran_s: f64,
}

impl SimSweep {
    pub fn new(seed: u64) -> Self {
        SimSweep {
            seed,
            traces: Vec::new(),
            scored_sweeps: 0,
            ideal_s: 0.0,
            ran_s: 0.0,
        }
    }

    /// The `i`-th trace of a run (the figure uses seeds 3000, 3001, ...).
    pub fn trace_for(seed: u64, i: usize) -> Trace {
        let base = adapter::scaled_spec(SIZES[0]);
        adapter::loaded_trace(&base, JOBS, 3_000 + 100 * seed + i as u64)
    }

    fn trace(&self, sweep: usize, size: usize) -> &Trace {
        &self.traces[(sweep * SIZES.len() + size) % TRACES]
    }
}

/// Every job is accounted for and ran in causal order.
pub fn check_result(result: &SimResult, jobs: usize, tally: &mut Tally) {
    tally.check(
        result.outcomes.len() + result.unfinished.len() == jobs,
        || {
            format!(
                "outcomes {} + unfinished {} != jobs {jobs}",
                result.outcomes.len(),
                result.unfinished.len()
            )
        },
    );
    let bad = result
        .outcomes
        .iter()
        .filter(|o| !(o.arrival_s <= o.start_s && o.start_s <= o.finish_s))
        .count();
    tally.check(bad == 0, || {
        format!("{bad} jobs with arrival <= start <= finish broken")
    });
}

/// One cell; returns the result and its wall seconds (cluster
/// construction included, as each Fig. 9 cell builds its own).
pub fn cell(servers: usize, trace: &Trace) -> (SimResult, f64) {
    let start = now_ns();
    let cluster = adapter::cluster_new(adapter::scaled_spec(servers));
    let result = adapter::simulate(cluster, trace);
    (result, (now_ns() - start) as f64 / 1e9)
}

impl Workload for SimSweep {
    fn setup(&mut self, tally: &mut Tally) {
        self.traces = (0..TRACES).map(|i| Self::trace_for(self.seed, i)).collect();
        let (result, _) = cell(SIZES[0], &self.traces[0]);
        check_result(&result, JOBS, tally);
    }

    fn repetition(&mut self, rep: usize, tally: &mut Tally) -> f64 {
        let mut wall_s = 0.0;
        for (i, servers) in SIZES.into_iter().enumerate() {
            let (result, cell_s) = cell(servers, self.trace(rep, i));
            check_result(&result, JOBS, tally);
            tally.attempted += JOBS as u64;
            tally.failed += result.unfinished.len() as u64;
            wall_s += cell_s;
            if rep == self.scored_sweeps && rep < MIN_SWEEPS {
                for o in &result.outcomes {
                    self.ideal_s += o.serial_time_s / o.gpus as f64;
                    self.ran_s += o.finish_s - o.start_s;
                }
            }
        }
        if rep == self.scored_sweeps {
            self.scored_sweeps += 1;
        }
        wall_s
    }

    fn conclude(&mut self, walls_s: &[f64], tally: &mut Tally) {
        // Cells of different sizes do not share a median; the typical
        // cell is a sweep's mean cell.
        tally.latency_p50_ms = median(walls_s) / SIZES.len() as f64 * 1e3;
        tally.info("latency_samples", walls_s.len());
        // The share of simulated run time that is communication: what
        // the other workloads estimate per iteration, here as it played
        // out. (The paper's NetPack / GPU-balance JCT ratio differs by
        // 9 % from one trace to the next: too few traces fit in a run.)
        tally.comm_overhead_ratio = 1.0 - self.ideal_s / self.ran_s;
    }

    fn jobs_per_repetition(&self) -> f64 {
        (JOBS * SIZES.len()) as f64
    }

    fn min_repetitions(&self) -> usize {
        MIN_SWEEPS
    }
}
