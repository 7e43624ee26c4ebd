//! The event loop of the flow-level simulator.
//!
//! # Fast path
//!
//! The loop's per-event cost is proportional to what changed, not to the
//! cluster and not to the running set:
//!
//! - **Books** — [`Simulation::run`] under [`InaMode::Statistical`] opens
//!   its job manager warm (`JobManager::warm`). Over NetPack the manager's
//!   books are one `NetPackSession` for the whole run — one GPU ledger,
//!   one running set, one server index, one water-filling estimator shared
//!   by placement and simulation — so an epoch rebuilds nothing and a
//!   completion stages one removal. A baseline placer has no session: the
//!   manager keeps its stateless books and a warm estimator beside them.
//!   The oracle `Simulation::run_reference` and [`InaMode::Synchronous`]
//!   (which has no incremental form) keep the stateless books and solve
//!   every steady state from scratch over `JobManager::running`, so the
//!   oracle shares neither session nor estimator with the run it checks.
//!   Nothing selects the oracle: tests call it. The loop itself keeps per
//!   job only its fluid progress and what its outcome needs of the trace.
//! - **Steady state** — the warm estimator re-solves only the
//!   resource-connected components an arrival batch or a completion
//!   touched, bit-identical to the from-scratch solve.
//! - **Re-rating** — the estimator stamps every job it re-solves with the
//!   number of the settle that did, and the loop remembers the last number
//!   it saw, so after a settle it revisits exactly the jobs stamped since
//!   (`rates_changed_since`) instead of walking the running set. That is
//!   exact, not approximate: a job's iteration time is a function of its
//!   own `(rate, shards)` entry, which only a solve of its component or
//!   its own push writes, and both stamp it — however many settles an
//!   epoch ran between two reads. The from-scratch path has no stamps and
//!   walks every running job; a debug build re-checks every running job
//!   after each selective pass.
//! - **Completions** — rather than scanning every running job per event,
//!   predicted finish times live in a lazy-invalidation min-heap. A
//!   job's fluid progress is anchored at the last rate change
//!   (`remaining_at_anchor` at `anchor_s`), so its predicted absolute
//!   finish time is constant while its rate is constant and heap entries
//!   stay valid without re-keying. When a rate *does* change, the job's
//!   generation counter is bumped and a fresh entry pushed; entries with
//!   stale generations are discarded when they surface at the top. Heap
//!   entries are totally ordered on `(finish, id, generation)`, so the
//!   order in which one event's re-rates push them does not matter.
//! - **Epoch grid** — the next scheduling-epoch time is computed in
//!   closed form (no stepping loop), so a huge gap between the last
//!   epoch and the next arrival costs O(1).
//!
//! [`SimResult::perf`] records the work: `sim_events`, `heap_pushes`,
//! `heap_stale_pops`, `sim_rerate_visits` (jobs the re-rate pass looked
//! at) and `sim_finish_errors` counters and `events`, `resolve_component`
//! (warm settles), `resolve_full` (from-scratch solves: synchronous mode,
//! and every solve of the reference), `heap_ops`, `place` phase timers,
//! plus the warm estimator's own counters (`wf_*`). Over NetPack that
//! estimator is the session's — the one placement pushes every job onto —
//! so `wf_pushes` and `wf_removes` count the selective-INA reconciliation
//! too (every job from the first one switched off to the end of its batch
//! is popped and re-pushed), not only arrivals and completions. A warm
//! run over NetPack also carries the session's own perf counters
//! (`place_batch`, `place_one`, `class_build`, `worker_dp`,
//! `waterfill_solve`, `waterfill_*`, … — the names of
//! `NetPackPlacer::perf`, none of which the loop's own use).

use crate::{JobOutcome, SimResult};
use netpack_core::JobManager;
use netpack_metrics::PerfCounters;
use netpack_metrics::Stopwatch;
use netpack_placement::Placer;
use netpack_topology::{Cluster, JobId};
use netpack_waterfill::{estimate, estimate_synchronous, PlacedJob, SteadyState};
use netpack_workload::{Job, Trace};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};

/// Which INA memory-multiplexing mode the cluster's switches run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InaMode {
    /// Statistical multiplexing (the paper's setting): switch memory is a
    /// shared pool, estimated by Algorithm 1.
    #[default]
    Statistical,
    /// Synchronous multiplexing (SwitchML-style equal static partitions):
    /// the comparison substrate for the §2.2 claims at cluster scale.
    Synchronous,
}

/// The job manager's scheduling period in seconds: the paper batches
/// arrivals and places them periodically, and job lifetimes are hours.
const EPOCH_S: f64 = 60.0;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Hard cap on simulated time; jobs still running at the cap are
    /// reported in [`SimResult::unfinished`]. Default: 90 days.
    pub max_sim_time_s: f64,
    /// Switch memory-multiplexing mode (default statistical).
    pub ina_mode: InaMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_sim_time_s: 90.0 * 86_400.0,
            ina_mode: InaMode::default(),
        }
    }
}

/// Per-running-job fluid state, anchored at the last rate change, and
/// what the job's [`JobOutcome`] needs of its trace record.
///
/// Progress is *lazy*: nothing is updated per event. The remaining
/// iteration count at time `t` is derived from the anchor, and the
/// predicted absolute finish time is constant while `iter_time_s` is
/// constant — that invariant is what keeps completion-heap entries valid
/// without per-event re-keying.
#[derive(Debug, Clone, Copy)]
struct Progress {
    /// GPUs the job holds.
    gpus: usize,
    /// Submission time.
    arrival_s: f64,
    /// Single-GPU, zero-communication runtime (DE numerator).
    serial_time_s: f64,
    /// Compute phase seconds per iteration (constant per job).
    compute_time_s: f64,
    /// Gradient size in gigabits (constant per job).
    gradient_gbits: f64,
    /// Time the placement was enforced and training began.
    start_s: f64,
    /// Seconds per iteration under the current steady state.
    iter_time_s: f64,
    /// Remaining iterations at `anchor_s`.
    remaining_at_anchor: f64,
    /// Time of the last rate change (or the start).
    anchor_s: f64,
    /// Bumped on every rate change; completion-heap entries carrying an
    /// older generation are stale.
    generation: u64,
}

impl Progress {
    /// The state of `job`, placed at `clock`, before its first rate.
    fn placed(job: &Job, clock: f64) -> Self {
        Progress {
            gpus: job.gpus,
            arrival_s: job.arrival_s,
            serial_time_s: job.serial_time_s(),
            compute_time_s: job.compute_time_s(),
            gradient_gbits: job.gradient_gbits(),
            start_s: clock,
            iter_time_s: f64::INFINITY, // set by the first re-rate
            remaining_at_anchor: job.iterations as f64,
            anchor_s: clock,
            generation: 0,
        }
    }

    /// Remaining iterations at absolute time `t` under the current rate.
    fn remaining_at(&self, t: f64) -> f64 {
        if self.iter_time_s.is_finite() && self.iter_time_s > 0.0 {
            self.remaining_at_anchor - (t - self.anchor_s) / self.iter_time_s
        } else {
            self.remaining_at_anchor
        }
    }

    /// Predicted absolute finish time (infinite while the job has no
    /// finite rate yet).
    fn predicted_finish_s(&self) -> f64 {
        if self.iter_time_s.is_finite() && self.iter_time_s > 0.0 {
            self.anchor_s + self.remaining_at_anchor.max(0.0) * self.iter_time_s
        } else {
            f64::INFINITY
        }
    }

    /// Seconds per iteration of job `id` under `state`.
    fn iter_time_under(&self, id: JobId, state: &SteadyState) -> f64 {
        let comm = state
            .comm_time_s(id, self.gradient_gbits)
            .unwrap_or(f64::INFINITY);
        self.compute_time_s + comm
    }

    /// Take job `id`'s rate from `state`. Re-anchors (and re-keys the
    /// heap) only on an actual change: an unchanged rate keeps the
    /// existing entry's predicted finish time exactly valid.
    fn rerate(
        &mut self,
        id: JobId,
        state: &SteadyState,
        clock: f64,
        heap: &mut BinaryHeap<Reverse<Completion>>,
        perf: &mut PerfCounters,
    ) {
        let iter_time = self.iter_time_under(id, state);
        if iter_time == self.iter_time_s {
            return;
        }
        self.remaining_at_anchor = self.remaining_at(clock);
        self.anchor_s = clock;
        self.iter_time_s = iter_time;
        self.generation += 1;
        let finish = self.predicted_finish_s();
        if finish.is_finite() {
            heap.push(Reverse(Completion {
                finish_s: finish,
                id,
                generation: self.generation,
            }));
            perf.incr("heap_pushes", 1);
        }
    }
}

/// A completion-heap entry. Compared by finish time (then id, then
/// generation, for deterministic ordering under ties).
#[derive(Debug, Clone, Copy)]
struct Completion {
    finish_s: f64,
    id: JobId,
    generation: u64,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Completion {}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> Ordering {
        self.finish_s
            .total_cmp(&other.finish_s)
            .then(self.id.cmp(&other.id))
            .then(self.generation.cmp(&other.generation))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Pop the stale entries off the top of `heap` — those whose job is gone
/// from `running` or has been re-rated since — and return the first live
/// one, left in place.
fn peek_live(
    heap: &mut BinaryHeap<Reverse<Completion>>,
    running: &BTreeMap<JobId, Progress>,
    perf: &mut PerfCounters,
) -> Option<Completion> {
    while let Some(&Reverse(c)) = heap.peek() {
        if running
            .get(&c.id)
            .is_some_and(|p| p.generation == c.generation)
        {
            return Some(c);
        }
        heap.pop();
        perf.incr("heap_stale_pops", 1);
    }
    None
}

/// Next epoch-grid point at or after `clock` and strictly after
/// `last_epoch_run`, in closed form. Returns infinity when the grid can
/// no longer advance in f64 (adding `epoch` saturates), so callers treat
/// the epoch as unreachable instead of spinning.
fn next_epoch_after(clock: f64, last_epoch_run: f64, epoch: f64) -> f64 {
    let mut t = (clock / epoch).floor() * epoch;
    if t < clock - 1e-9 {
        t += epoch;
    }
    if t <= last_epoch_run + 1e-9 {
        // Jump the whole gap at once instead of stepping epoch by epoch.
        let steps = ((last_epoch_run + 1e-9 - t) / epoch).floor() + 1.0;
        t += steps * epoch;
        if t <= last_epoch_run + 1e-9 {
            t += epoch;
        }
    }
    if t <= last_epoch_run + 1e-9 || t < clock - 1e-9 {
        f64::INFINITY
    } else {
        t
    }
}

/// A trace-replay simulation over one cluster and one placer.
pub struct Simulation {
    cluster: Cluster,
    placer: Box<dyn Placer>,
    config: SimConfig,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("placer", &self.placer.name())
            .field("servers", &self.cluster.num_servers())
            .finish()
    }
}

impl Simulation {
    /// Build a simulation.
    pub fn new(cluster: Cluster, placer: Box<dyn Placer>, config: SimConfig) -> Self {
        Simulation {
            cluster,
            placer,
            config,
        }
    }

    /// Replay `trace` to completion (or the time cap) and return the
    /// per-job outcomes.
    pub fn run(self, trace: &Trace) -> SimResult {
        // The warm estimator models statistical multiplexing (Algorithm 1);
        // synchronous mode has no incremental form.
        let warm = self.config.ina_mode == InaMode::Statistical;
        self.replay(trace, warm)
    }

    /// The oracle [`run`](Self::run) is held to: the same event loop with
    /// the steady state re-solved from scratch over every running job at
    /// every event. Bit-identical [`SimResult`], far slower; tests call
    /// it, nothing selects it.
    #[doc(hidden)]
    pub fn run_reference(self, trace: &Trace) -> SimResult {
        self.replay(trace, false)
    }

    /// The event loop. `warm` opens the manager warm and takes each steady
    /// state, and the jobs it moved, from its incremental estimator;
    /// otherwise the books are stateless and every solve is from scratch.
    fn replay(self, trace: &Trace, warm: bool) -> SimResult {
        let Simulation {
            cluster,
            placer,
            config,
        } = self;
        let total_gpus = cluster.total_gpus();
        let mut manager = if warm {
            JobManager::warm(cluster, placer)
        } else {
            JobManager::new(cluster, placer)
        };
        let mut result = SimResult::default();
        let mut perf = PerfCounters::new();

        // Arrival queue (trace is sorted by arrival time).
        let mut arrivals: std::collections::VecDeque<Job> = trace
            .jobs()
            .iter()
            .filter(|j| {
                if j.gpus > total_gpus {
                    // Unplaceable in this cluster: report, don't deadlock.
                    result.unfinished.push(j.id);
                    false
                } else {
                    true
                }
            })
            .cloned()
            .collect();

        let mut running: BTreeMap<JobId, Progress> = BTreeMap::new();
        let mut heap: BinaryHeap<Reverse<Completion>> = BinaryHeap::new();
        let mut used_gpus: usize = 0;
        let mut clock = 0.0f64;
        let mut last_epoch_run = f64::NEG_INFINITY;
        let mut state_ready = false;
        // The warm estimator's settle number as of the last re-rate, and
        // the jobs re-solved since (an arena).
        let mut seen_epoch = 0u64;
        let mut changed: Vec<JobId> = Vec::new();

        loop {
            let event_start = Stopwatch::start();
            perf.incr("sim_events", 1);

            // -------- determine the next event time --------
            let next_arrival = arrivals.front().map(|j| j.arrival_s);
            let next_epoch = if manager.pending().is_empty() {
                None
            } else {
                Some(next_epoch_after(clock, last_epoch_run, EPOCH_S))
            };
            let heap_start = Stopwatch::start();
            let next_completion =
                peek_live(&mut heap, &running, &mut perf).map_or(f64::INFINITY, |c| c.finish_s);
            perf.record("heap_ops", heap_start.elapsed());

            let mut t = f64::INFINITY;
            for cand in [
                next_arrival.unwrap_or(f64::INFINITY),
                next_epoch.unwrap_or(f64::INFINITY),
                next_completion,
            ] {
                t = t.min(cand);
            }
            if !t.is_finite() {
                // No arrivals, no reachable epoch, no finite completions.
                break;
            }
            let t = t.clamp(clock, config.max_sim_time_s);

            // -------- account GPU time to t --------
            let dt = t - clock;
            if dt > 0.0 {
                result.gpu_seconds += used_gpus as f64 * dt;
            }
            clock = t;
            if clock >= config.max_sim_time_s {
                break;
            }

            let mut rates_dirty = false;

            // -------- arrivals --------
            while arrivals
                .front()
                .is_some_and(|j| j.arrival_s <= clock + 1e-9)
            {
                let Some(job) = arrivals.pop_front() else {
                    break;
                };
                manager.submit(job);
            }

            // -------- completions --------
            let heap_start = Stopwatch::start();
            while let Some(c) = peek_live(&mut heap, &running, &mut perf) {
                if c.finish_s > clock + 1e-9 {
                    break;
                }
                heap.pop();
                // `running` mirrors the manager's running set, so the
                // lookup succeeds for a live entry.
                let Some(p) = running.remove(&c.id) else {
                    continue;
                };
                if manager.finish(c.id).is_err() {
                    // The manager's books are broken and refuse the
                    // release: the job keeps its GPUs there, can never
                    // complete, and must still be accounted for.
                    result.unfinished.push(c.id);
                    perf.incr("sim_finish_errors", 1);
                    continue;
                }
                used_gpus -= p.gpus;
                result.outcomes.push(JobOutcome {
                    id: c.id,
                    gpus: p.gpus,
                    arrival_s: p.arrival_s,
                    start_s: p.start_s,
                    finish_s: clock,
                    serial_time_s: p.serial_time_s,
                });
                rates_dirty = true;
            }
            perf.record("heap_ops", heap_start.elapsed());

            // -------- scheduling epoch --------
            let on_epoch_grid = ((clock / EPOCH_S).round() * EPOCH_S - clock).abs() < 1e-6;
            if !manager.pending().is_empty() && on_epoch_grid && clock > last_epoch_run + 1e-9 {
                last_epoch_run = clock;
                let placed = perf.time("place", || manager.run_epoch());
                for (job, _) in placed {
                    used_gpus += job.gpus;
                    running.insert(job.id, Progress::placed(&job, clock));
                    rates_dirty = true;
                }
            }

            // -------- rate recomputation --------
            if rates_dirty || !state_ready {
                state_ready = true;
                if warm {
                    let solve_start = Stopwatch::start();
                    manager.steady_state_incremental();
                    perf.record("resolve_component", solve_start.elapsed());
                    seen_epoch = manager.rates_changed_since(seen_epoch, &mut changed);
                    // Settled just above: this is a read.
                    let s = manager.steady_state_incremental();
                    perf.incr("sim_rerate_visits", changed.len() as u64);
                    for &id in &changed {
                        if let Some(p) = running.get_mut(&id) {
                            p.rerate(id, s, clock, &mut heap, &mut perf);
                        }
                    }
                    debug_assert!(
                        running
                            .iter()
                            .all(|(&id, p)| p.iter_time_s == p.iter_time_under(id, s)),
                        "a running job's rate moved without a stamp"
                    );
                } else {
                    let s = perf.time("resolve_full", || {
                        let cluster = manager.cluster();
                        let placed: Vec<PlacedJob> = manager
                            .running()
                            .iter()
                            .map(|r| r.to_placed(cluster))
                            .collect();
                        match config.ina_mode {
                            InaMode::Statistical => estimate(cluster, &placed),
                            InaMode::Synchronous => estimate_synchronous(cluster, &placed),
                        }
                    });
                    perf.incr("sim_rerate_visits", running.len() as u64);
                    for (&id, p) in running.iter_mut() {
                        p.rerate(id, &s, clock, &mut heap, &mut perf);
                    }
                }
            }

            perf.record("events", event_start.elapsed());

            // -------- termination --------
            if arrivals.is_empty() && manager.pending().is_empty() && running.is_empty() {
                break;
            }
        }
        // Whatever is still in flight — at the time cap, or with no
        // finite event left — never finished.
        result.unfinished.extend(running.keys().copied());
        result.unfinished.extend(arrivals.iter().map(|j| j.id));
        result
            .unfinished
            .extend(manager.pending().iter().map(|j| j.id));
        result.makespan_s = clock;
        result
            .outcomes
            .sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s));
        result.unfinished.sort_unstable();
        for w in result.unfinished.windows(2) {
            assert!(w[0] != w[1], "job {} reported unfinished twice", w[0]);
        }
        if let Some(stats) = manager.waterfill_stats() {
            perf.incr("wf_pushes", stats.pushes);
            perf.incr("wf_removes", stats.removes);
            perf.incr("wf_staged_ops", stats.staged);
            perf.incr("wf_settles", stats.settles);
            perf.incr("wf_components_solved", stats.components_solved);
            perf.incr("wf_warm_pushes", stats.warm_pushes);
            perf.incr("wf_jobs_resolved", stats.jobs_resolved);
            perf.incr("wf_jobs_reused", stats.jobs_reused);
            perf.incr("wf_rounds", stats.rounds);
            perf.incr("wf_link_visits", stats.link_visits);
            perf.incr("wf_lone_entries", stats.lone_entries);
            perf.incr("wf_class_splits", stats.class_splits);
            perf.incr("wf_unconverged", stats.unconverged);
        }
        // A warm run's placement layer: the session's phases and counters,
        // under names none of the event loop's share.
        if let Some(session) = manager.session_perf() {
            perf.merge(session);
        }
        result.perf = perf;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_placement::{GpuBalance, NetPackPlacer};
    use netpack_topology::ClusterSpec;
    use netpack_workload::{ModelKind, TraceKind, TraceSpec};

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 4,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        })
    }

    fn quick_config() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn single_local_job_finishes_in_ideal_time() {
        let trace = Trace::from_jobs(vec![Job::builder(JobId(0), ModelKind::ResNet50, 4)
            .iterations(100)
            .build()]);
        let sim = Simulation::new(
            cluster(),
            Box::new(NetPackPlacer::default()),
            quick_config(),
        );
        let result = sim.run(&trace);
        assert_eq!(result.outcomes.len(), 1);
        let o = &result.outcomes[0];
        // Placed at t=0 (epoch grid) on one server: no communication.
        let ideal = 100.0 * ModelKind::ResNet50.compute_time_s();
        assert!((o.jct_s() - ideal).abs() < 1e-6, "jct {}", o.jct_s());
        assert!(result.unfinished.is_empty());
        assert!(result.perf.counter("sim_events") > 0);
    }

    #[test]
    fn spanning_job_pays_communication_time() {
        let trace = Trace::from_jobs(vec![Job::builder(JobId(0), ModelKind::Vgg16, 8)
            .iterations(50)
            .build()]);
        let sim = Simulation::new(
            cluster(),
            Box::new(NetPackPlacer::default()),
            quick_config(),
        );
        let result = sim.run(&trace);
        let o = &result.outcomes[0];
        let ideal = 50.0 * ModelKind::Vgg16.compute_time_s();
        assert!(o.jct_s() > ideal, "communication must cost time");
        // DE < 1 because of that overhead.
        assert!(result.distribution_efficiency().unwrap() < 1.0);
    }

    #[test]
    fn queued_jobs_wait_for_capacity() {
        // Two 16-GPU jobs on a 16-GPU cluster: strictly serialized.
        let mk = |id: u64| {
            Job::builder(JobId(id), ModelKind::AlexNet, 16)
                .iterations(100)
                .build()
        };
        let trace = Trace::from_jobs(vec![mk(0), mk(1)]);
        let sim = Simulation::new(
            cluster(),
            Box::new(NetPackPlacer::default()),
            quick_config(),
        );
        let result = sim.run(&trace);
        assert_eq!(result.outcomes.len(), 2);
        let first = result.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        let second = result.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert!(second.start_s >= first.finish_s - 1e-6);
        assert!(second.wait_s() > 0.0);
    }

    #[test]
    fn oversized_jobs_are_reported_unfinished() {
        let trace = Trace::from_jobs(vec![Job::builder(JobId(0), ModelKind::AlexNet, 999).build()]);
        let sim = Simulation::new(cluster(), Box::new(GpuBalance), quick_config());
        let result = sim.run(&trace);
        assert!(result.outcomes.is_empty());
        assert_eq!(result.unfinished, vec![JobId(0)]);
    }

    #[test]
    fn trace_replay_completes_for_all_placers() {
        let trace = TraceSpec::new(TraceKind::Real, 30)
            .seed(3)
            .duration_scale(0.02)
            .max_gpus(16)
            .generate();
        for placer in [
            Box::new(NetPackPlacer::default()) as Box<dyn Placer>,
            Box::new(GpuBalance),
        ] {
            let sim = Simulation::new(cluster(), placer, quick_config());
            let result = sim.run(&trace);
            assert_eq!(result.outcomes.len(), 30, "all jobs finish");
            assert!(result.unfinished.is_empty());
            assert!(result.average_jct_s().unwrap() > 0.0);
            let de = result.distribution_efficiency().unwrap();
            assert!(de > 0.0 && de <= 1.0 + 1e-9, "de {de}");
        }
    }

    #[test]
    fn shuffled_insertion_order_yields_identical_result() {
        // Same-arrival jobs with identical values are the adversarial
        // case: the stable arrival sort preserves insertion order, so
        // only the manager's canonical batch ordering keeps knapsack
        // tie-breaks submission-order independent.
        let mk = |id: u64, model: ModelKind, gpus: usize| {
            Job::builder(JobId(id), model, gpus).iterations(200).build()
        };
        let jobs = [
            mk(0, ModelKind::Vgg16, 4),
            mk(1, ModelKind::ResNet50, 4),
            mk(2, ModelKind::AlexNet, 8),
            mk(3, ModelKind::Vgg16, 2),
            mk(4, ModelKind::ResNet50, 8),
            mk(5, ModelKind::AlexNet, 4),
            mk(6, ModelKind::Vgg16, 8),
            mk(7, ModelKind::ResNet50, 2),
        ];
        let run = |order: &[usize]| {
            let shuffled: Vec<Job> = order.iter().map(|&i| jobs[i].clone()).collect();
            let sim = Simulation::new(
                cluster(),
                Box::new(NetPackPlacer::default()),
                quick_config(),
            );
            sim.run(&Trace::from_jobs(shuffled))
        };
        let reference = run(&[0, 1, 2, 3, 4, 5, 6, 7]);
        // A seeded Fisher-Yates permutation plus a plain reversal.
        for order in [
            [7usize, 6, 5, 4, 3, 2, 1, 0],
            [3, 0, 6, 2, 7, 5, 1, 4],
            [5, 2, 7, 0, 4, 6, 3, 1],
        ] {
            let shuffled = run(&order);
            assert_eq!(
                shuffled, reference,
                "SimResult must not depend on job insertion order ({order:?})"
            );
        }
    }

    #[test]
    fn makespan_covers_the_last_finish() {
        let trace = TraceSpec::new(TraceKind::Poisson, 10)
            .seed(5)
            .duration_scale(0.05)
            .max_gpus(8)
            .generate();
        let sim = Simulation::new(cluster(), Box::new(GpuBalance), quick_config());
        let result = sim.run(&trace);
        let last = result
            .outcomes
            .iter()
            .map(|o| o.finish_s)
            .fold(0.0, f64::max);
        assert!(result.makespan_s >= last - 1e-6);
    }

    #[test]
    fn incremental_and_scratch_replays_agree_exactly() {
        let trace = TraceSpec::new(TraceKind::Real, 20)
            .seed(11)
            .duration_scale(0.03)
            .max_gpus(12)
            .generate();
        let sim = || {
            Simulation::new(
                cluster(),
                Box::new(NetPackPlacer::default()),
                quick_config(),
            )
        };
        let inc = sim().run(&trace);
        let scratch = sim().run_reference(&trace);
        assert_eq!(inc, scratch);
        assert!(scratch.perf.timer_count("resolve_full") > 0);
        // The fast path actually took the incremental branch…
        assert!(inc.perf.timer_count("resolve_component") > 0);
        assert_eq!(inc.perf.timer_count("resolve_full"), 0);
        // …and reused far more job solves than it redid.
        assert!(inc.perf.counter("wf_jobs_reused") > inc.perf.counter("wf_jobs_resolved") / 2);
    }

    /// A warm NetPack run reports its session's placement layer beside
    /// the event loop's counters, one `place_batch` per epoch that placed
    /// anything; a placer with no session (GB) and the from-scratch
    /// reference have no session to report.
    #[test]
    fn a_warm_run_reports_its_sessions_perf_counters() {
        let trace = TraceSpec::new(TraceKind::Real, 20)
            .seed(11)
            .duration_scale(0.03)
            .max_gpus(12)
            .generate();
        let run = |placer: Box<dyn Placer>, reference: bool| {
            let sim = Simulation::new(cluster(), placer, SimConfig::default());
            if reference {
                sim.run_reference(&trace)
            } else {
                sim.run(&trace)
            }
        };
        let warm = run(Box::<NetPackPlacer>::default(), false);
        let batches = warm.perf.timer_count("place_batch");
        assert!(batches > 0 && batches <= warm.perf.timer_count("place"));
        for phase in ["place_one", "class_build", "waterfill_solve"] {
            assert!(warm.perf.timer_count(phase) > 0, "{phase}");
        }
        assert_eq!(
            warm.perf.counter("waterfill_pushes"),
            warm.perf.counter("wf_pushes")
        );
        for cold in [
            run(Box::new(GpuBalance), false),
            run(Box::<NetPackPlacer>::default(), true),
        ] {
            assert_eq!(cold.perf.timer_count("place_batch"), 0);
            assert!(cold.perf.timer_count("place") > 0);
        }
    }

    #[test]
    fn time_cap_reports_running_and_queued_jobs_sorted() {
        // One hog that cannot finish before the cap, one job queued behind
        // it, and one arrival after the cap: all three must be reported,
        // sorted, exactly once.
        let hog = Job::builder(JobId(2), ModelKind::AlexNet, 16)
            .iterations(u64::MAX)
            .build();
        let queued = Job::builder(JobId(0), ModelKind::AlexNet, 16)
            .arrival_s(10.0)
            .build();
        let late = Job::builder(JobId(1), ModelKind::AlexNet, 4)
            .arrival_s(1e7)
            .build();
        let config = SimConfig {
            max_sim_time_s: 500.0,
            ..SimConfig::default()
        };
        let sim = Simulation::new(cluster(), Box::new(GpuBalance), config);
        let result = sim.run(&Trace::from_jobs(vec![hog, queued, late]));
        assert!(result.outcomes.is_empty());
        assert_eq!(result.unfinished, vec![JobId(0), JobId(1), JobId(2)]);
        assert!(result.makespan_s <= 500.0 + 1e-6);
    }
}

#[cfg(test)]
mod epoch_grid_tests {
    use super::*;
    use netpack_placement::GpuBalance;
    use netpack_topology::ClusterSpec;
    use netpack_workload::ModelKind;

    #[test]
    fn closed_form_matches_stepping() {
        let reference = |clock: f64, last: f64, epoch: f64| {
            let mut t = (clock / epoch).floor() * epoch;
            if t < clock - 1e-9 {
                t += epoch;
            }
            while t <= last + 1e-9 {
                t += epoch;
            }
            t
        };
        for &(clock, last, epoch) in &[
            (0.0, f64::NEG_INFINITY, 60.0),
            (59.0, 0.0, 60.0),
            (60.0, 60.0, 60.0),
            (61.0, 60.0, 60.0),
            (1234.5, 1200.0, 60.0),
            (0.0, 600.0, 60.0),
            (100.0, 100.0, 7.5),
        ] {
            let got = next_epoch_after(clock, last, epoch);
            let want = reference(clock, last, epoch);
            assert!(
                (got - want).abs() < 1e-6,
                "clock {clock} last {last} epoch {epoch}: {got} vs {want}"
            );
            assert!(got >= clock - 1e-9 && got > last + 1e-9);
        }
    }

    #[test]
    fn saturated_grid_returns_infinity() {
        // At magnitudes where adding one epoch is a float no-op, the grid
        // cannot advance past `last` — report unreachable, don't spin.
        let t = next_epoch_after(1e18, 1e18, 60.0);
        assert!(t.is_infinite());
    }

    #[test]
    fn huge_gap_to_next_arrival_is_cheap_and_correct() {
        // Job 0 runs for a long time; job 1 arrives ~10^7 s later, far
        // past the last-run epoch. The old stepping loop walked the whole
        // gap epoch by epoch on every event; the closed form must land
        // job 1 on the first grid point at/after its arrival.
        let cluster = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 4,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        });
        let arrival = 1.0e7 + 1.0;
        let jobs = vec![
            Job::builder(JobId(0), ModelKind::AlexNet, 16)
                .iterations(2_000_000)
                .build(),
            Job::builder(JobId(1), ModelKind::AlexNet, 4)
                .arrival_s(arrival)
                .build(),
        ];
        let config = SimConfig {
            max_sim_time_s: 1.0e9,
            ..SimConfig::default()
        };
        let sim = Simulation::new(cluster, Box::new(GpuBalance), config);
        let result = sim.run(&Trace::from_jobs(jobs));
        assert_eq!(result.outcomes.len(), 2);
        let second = result.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert!(second.start_s >= arrival - 1e-6);
        let on_grid = ((second.start_s / EPOCH_S).round() * EPOCH_S - second.start_s).abs() < 1e-6;
        assert!(on_grid, "start {} not on the epoch grid", second.start_s);
    }
}

#[cfg(test)]
mod ina_mode_tests {
    use super::*;
    use netpack_placement::NetPackPlacer;
    use netpack_topology::ClusterSpec;
    use netpack_workload::{ModelKind, TraceKind, TraceSpec};

    #[test]
    fn synchronous_mode_is_never_faster_than_statistical() {
        let spec = ClusterSpec {
            racks: 2,
            servers_per_rack: 4,
            gpus_per_server: 2,
            pat_gbps: 50.0,
            ..ClusterSpec::paper_default()
        };
        let trace = TraceSpec::new(TraceKind::Real, 25)
            .seed(8)
            .duration_scale(0.05)
            .max_gpus(8)
            .generate();
        let run = |mode| {
            let config = SimConfig {
                ina_mode: mode,
                ..SimConfig::default()
            };
            Simulation::new(
                Cluster::new(spec.clone()),
                Box::new(NetPackPlacer::default()),
                config,
            )
            .run(&trace)
            .average_jct_s()
            .expect("jobs finished")
        };
        let stat = run(InaMode::Statistical);
        let sync = run(InaMode::Synchronous);
        assert!(
            stat <= sync + 1e-6,
            "statistical {stat} should not lose to synchronous {sync}"
        );
    }

    #[test]
    fn synchronous_zero_pat_still_completes_jobs() {
        let spec = ClusterSpec {
            racks: 1,
            servers_per_rack: 4,
            gpus_per_server: 2,
            pat_gbps: 0.0,
            ..ClusterSpec::paper_default()
        };
        let jobs = vec![Job::builder(JobId(0), ModelKind::Vgg16, 6)
            .iterations(20)
            .build()];
        let config = SimConfig {
            ina_mode: InaMode::Synchronous,
            ..SimConfig::default()
        };
        let result = Simulation::new(
            Cluster::new(spec),
            Box::new(NetPackPlacer::default()),
            config,
        )
        .run(&Trace::from_jobs(jobs));
        assert_eq!(result.outcomes.len(), 1);
    }
}
