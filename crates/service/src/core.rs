//! The deterministic service engine: commands in, placements out.
//!
//! [`ServiceCore`] is the whole service minus the thread: it owns a
//! [`NetPackSession`], a pending queue, and the counters, and is driven by
//! [`apply`](ServiceCore::apply) / [`place_pass`](ServiceCore::place_pass)
//! calls. The threaded front end in [`runtime`](crate::runtime) is a thin
//! loop around it; benches and determinism checks drive it directly so the
//! command schedule is exactly the input stream.

use crate::config::ServiceConfig;
use netpack_metrics::{PerfCounters, Stopwatch};
use netpack_model::Placement;
use netpack_placement::{placement_order, NetPackSession, SessionError, DEFERRAL_AGING};
use netpack_topology::{Cluster, JobId};
use netpack_workload::Job;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::mpsc::SyncSender;

/// Where a job currently stands, as answered by [`Command::Query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted and waiting in the pending queue for a placement pass.
    Pending,
    /// Placed and holding GPUs.
    Running,
    /// Never submitted, rejected, or already retired.
    Unknown,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Pending => "pending",
            JobStatus::Running => "running",
            JobStatus::Unknown => "unknown",
        }
    }
}

/// One operation on the service's command stream.
#[derive(Debug)]
pub enum Command {
    /// Enqueue a job for placement (rejected if it asks for no GPU, if its
    /// value is not finite and above 0 — what `JobBuilder::build` would
    /// refuse, though `Job`'s fields are public — if its id is already
    /// pending or running, or if the queue is at capacity).
    Submit(Job),
    /// Abandon a job wherever it is: drop it from the queue if still
    /// pending, tear it down if running.
    Cancel(JobId),
    /// The job finished training: release its GPUs. Completing a job that
    /// is still pending retires it from the queue unplaced.
    Complete(JobId),
    /// Report the job's [`JobStatus`], optionally over a reply channel.
    Query(JobId, Option<SyncSender<JobStatus>>),
}

/// Monotonic operation counters — the service's backpressure and progress
/// gauges, cheap enough to bump on every command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceCounters {
    /// Submissions accepted into the pending queue.
    pub submitted: u64,
    /// Submissions refused: the job asked for no GPU, its value was not
    /// finite and above 0, the id was already pending or running, or the
    /// queue was at `queue_cap` (logged as `kind=no-gpus`,
    /// `kind=bad-value`, `kind=duplicate` and `queue=<depth>`).
    pub rejected: u64,
    /// Jobs placed (each placement counted once, at the pass it landed).
    pub placed: u64,
    /// Defer events: a job returning to the queue after an unplaceable
    /// pass. One job deferred across five passes counts five.
    pub deferrals: u64,
    /// Placement passes that saw a non-empty queue.
    pub batches: u64,
    /// Cancels that removed a still-pending job from the queue.
    pub cancelled_pending: u64,
    /// Cancels that tore down a running job.
    pub cancelled_running: u64,
    /// Completes that retired a running job.
    pub completed: u64,
    /// Completes that retired a job straight out of the pending queue.
    pub completed_pending: u64,
    /// Cancels/completes for ids the service does not know.
    pub unknown_ops: u64,
    /// Cancels/completes of a running job that the session refused
    /// because its GPU ledger would not take the credit — some of the
    /// job's GPUs were free already ([`SessionError::Ledger`]); the job
    /// keeps running.
    pub ledger_errors: u64,
    /// Query commands served.
    pub queries: u64,
    /// High-water mark of the pending queue.
    pub max_queue_depth: u64,
}

/// Everything the service hands back at shutdown.
#[derive(Debug, Default)]
pub struct ServiceReport {
    /// Final operation counters.
    pub counters: ServiceCounters,
    /// Merged perf: the service's `placement_latency` histogram and
    /// `place_pass` timer plus every counter the underlying placer kept.
    pub perf: PerfCounters,
    /// Event log, one line per operation (empty unless
    /// [`ServiceConfig::event_log`] was set).
    pub events: Vec<String>,
    /// Jobs still pending when the service stopped.
    pub pending_left: usize,
    /// Jobs still running when the service stopped.
    pub running_left: usize,
}

/// The synchronous placement engine behind the service. See the
/// [module docs](self) for how it relates to the threaded front end.
#[derive(Debug)]
pub struct ServiceCore {
    session: NetPackSession,
    config: ServiceConfig,
    pending: Vec<Job>,
    /// Submit-time stopwatch per queued job, carried across deferrals so
    /// the latency histogram measures submit → eventual placement.
    watches: BTreeMap<JobId, Stopwatch>,
    counters: ServiceCounters,
    perf: PerfCounters,
    events: Vec<String>,
    /// Double buffer for [`place_pass`](Self::place_pass): the drained
    /// batch vec is swapped back in after the pass, so steady-state passes
    /// reallocate neither the queue nor the batch.
    batch_scratch: Vec<Job>,
}

impl ServiceCore {
    /// A fresh engine over `cluster` with nothing pending or running.
    pub fn new(cluster: Cluster, config: ServiceConfig) -> Self {
        let session = NetPackSession::new(cluster, config.placer.clone());
        ServiceCore {
            session,
            config,
            pending: Vec::new(),
            watches: BTreeMap::new(),
            counters: ServiceCounters::default(),
            perf: PerfCounters::new(),
            events: Vec::new(),
            batch_scratch: Vec::new(),
        }
    }

    /// Current operation counters.
    pub fn counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// Event-log lines recorded so far (empty unless enabled).
    pub fn events(&self) -> &[String] {
        &self.events
    }

    /// Jobs waiting for the next placement pass.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Jobs currently holding GPUs.
    pub fn running_len(&self) -> usize {
        self.session.running().len()
    }

    /// Free GPUs on the session's ledger.
    pub fn free_gpus(&self) -> usize {
        self.session.free_gpus()
    }

    /// The underlying placement session, for inspecting the running set
    /// and its placements.
    pub fn session(&self) -> &NetPackSession {
        &self.session
    }

    /// Absorb the completions applied since the last pass into the
    /// session's steady state ([`NetPackSession::settle`]) — what a reader
    /// of [`session`](Self::session)`.state()` between two passes calls
    /// first. Every [`place_pass`](Self::place_pass) does it itself.
    pub fn settle(&mut self) {
        self.session.settle();
    }

    /// Where `id` currently stands. `watches` holds exactly the pending
    /// ids, so the queue itself is never searched.
    pub fn status(&self, id: JobId) -> JobStatus {
        if self.watches.contains_key(&id) {
            JobStatus::Pending
        } else if self.session.is_running(id) {
            JobStatus::Running
        } else {
            JobStatus::Unknown
        }
    }

    fn event(&mut self, line: String) {
        if self.config.event_log {
            self.events.push(line);
        }
    }

    /// Cancel or complete `id` wherever it stands — the two commands
    /// differ in the word they log and the counters they bump. A job still
    /// pending simply leaves the queue: nothing was allocated, there is
    /// nothing to release. Otherwise the session retires it, and its two
    /// refusals are counted apart: a stale id is routine, books that
    /// disagree are the one error an operator must see. The queue is
    /// searched only for an id `watches` says is in it: most retirements
    /// are of running jobs, and the queue can be deep.
    fn retire(
        &mut self,
        op: &str,
        id: JobId,
        from_pending: fn(&mut ServiceCounters) -> &mut u64,
        from_running: fn(&mut ServiceCounters) -> &mut u64,
    ) {
        let kind = if self.watches.remove(&id).is_some() {
            self.pending.retain(|j| j.id != id);
            *from_pending(&mut self.counters) += 1;
            "pending"
        } else {
            match self.session.complete(id) {
                Ok(_) => {
                    *from_running(&mut self.counters) += 1;
                    "running"
                }
                Err(SessionError::Ledger(_)) => {
                    self.counters.ledger_errors += 1;
                    "ledger-error"
                }
                Err(_) => {
                    self.counters.unknown_ops += 1;
                    "unknown"
                }
            }
        };
        if self.config.event_log {
            self.event(format!("{op} id={id} kind={kind}"));
        }
    }

    /// Apply one command. Placement only happens in
    /// [`place_pass`](Self::place_pass); this mutates the queue and the
    /// running set and keeps the counters honest.
    pub fn apply(&mut self, cmd: Command) {
        match cmd {
            Command::Submit(job) => {
                // A job of no GPU has nothing to place. FindSubset's
                // knapsack never selects a NaN value, and an infinite one
                // leaves it nothing after it; the values it weighs must be
                // finite and positive. `watches` holds exactly the pending
                // ids; placing a second copy of a live id would orphan the
                // first: one `Complete` retires one of them and the other
                // holds its GPUs for good.
                let no_gpus = job.gpus == 0;
                let bad_value = !(job.value.is_finite() && job.value > 0.0);
                let duplicate =
                    self.watches.contains_key(&job.id) || self.session.is_running(job.id);
                if no_gpus || bad_value || duplicate || self.pending.len() >= self.config.queue_cap
                {
                    self.counters.rejected += 1;
                    if self.config.event_log {
                        let why = if no_gpus {
                            "kind=no-gpus".to_string()
                        } else if bad_value {
                            "kind=bad-value".to_string()
                        } else if duplicate {
                            "kind=duplicate".to_string()
                        } else {
                            format!("queue={}", self.pending.len())
                        };
                        self.event(format!("reject id={} {why}", job.id));
                    }
                    return;
                }
                self.counters.submitted += 1;
                if self.config.event_log {
                    self.event(format!(
                        "submit id={} gpus={} queue={}",
                        job.id,
                        job.gpus,
                        self.pending.len() + 1
                    ));
                }
                self.watches.insert(job.id, Stopwatch::start());
                self.pending.push(job);
                self.counters.max_queue_depth =
                    self.counters.max_queue_depth.max(self.pending.len() as u64);
            }
            Command::Cancel(id) => self.retire(
                "cancel",
                id,
                |c| &mut c.cancelled_pending,
                |c| &mut c.cancelled_running,
            ),
            Command::Complete(id) => self.retire(
                "complete",
                id,
                |c| &mut c.completed_pending,
                |c| &mut c.completed,
            ),
            Command::Query(id, reply) => {
                self.counters.queries += 1;
                let status = self.status(id);
                self.event(format!("query id={id} status={}", status.as_str()));
                if let Some(tx) = reply {
                    // A gone or saturated requester is its own problem.
                    let _ = tx.try_send(status);
                }
            }
        }
    }

    /// Run one placement pass over the whole pending queue: sorted by
    /// [`placement_order`], one [`NetPackSession`] batch, deferred jobs
    /// aged by [`DEFERRAL_AGING`] and requeued. Returns the number of jobs
    /// placed.
    ///
    /// Completions applied since the last pass only staged their estimator
    /// removals; the pass settles them, so after every pass — one that
    /// found the queue empty included — [`session`](Self::session)`.state()`
    /// is the exact steady state of the running set.
    pub fn place_pass(&mut self) -> usize {
        if self.pending.is_empty() {
            self.settle();
            return 0;
        }
        self.counters.batches += 1;
        let mut batch =
            std::mem::replace(&mut self.pending, std::mem::take(&mut self.batch_scratch));
        batch.sort_by(placement_order);
        let n = batch.len();

        let pass = Stopwatch::start();
        let outcome = self.session.place_batch(&batch);
        self.perf.record("place_pass", pass.elapsed());

        let placed = outcome.placed.len();
        for (job, p) in &outcome.placed {
            self.counters.placed += 1;
            if let Some(watch) = self.watches.remove(&job.id) {
                self.perf.record_latency("placement_latency", watch.elapsed());
            }
            if self.config.event_log {
                self.event(format!("place id={} {}", job.id, placement_digest(p)));
            }
        }
        for mut job in outcome.deferred {
            job.value += DEFERRAL_AGING;
            self.counters.deferrals += 1;
            if self.config.event_log {
                self.event(format!("defer id={} value={:.3}", job.id, job.value));
            }
            self.pending.push(job);
        }
        if self.config.event_log {
            self.event(format!(
                "batch n={n} placed={placed} deferred={} free={}",
                n - placed,
                self.session.free_gpus()
            ));
        }
        batch.clear();
        self.batch_scratch = batch;
        placed
    }

    /// Stop the engine and hand everything back: counters, merged perf
    /// (service-level plus the placer's), the event log, and what was
    /// still in flight.
    pub fn finish(mut self) -> ServiceReport {
        let mut perf = self.perf;
        perf.merge(&self.session.take_perf());
        ServiceReport {
            counters: self.counters,
            perf,
            events: self.events,
            pending_left: self.pending.len(),
            running_left: self.session.running().len(),
        }
    }
}

/// Stable one-line rendering of a placement for the event log.
fn placement_digest(p: &Placement) -> String {
    let mut s = String::from("workers=[");
    for (i, &(srv, w)) in p.workers().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}x{}", srv.0, w);
    }
    s.push_str("] ps=[");
    for (i, srv) in p.pses().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", srv.0);
    }
    let _ = write!(s, "] ina={}", u8::from(p.ina_enabled()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_topology::{ClusterSpec, JobId};
    use netpack_workload::{Job, ModelKind};

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 2,
            servers_per_rack: 4,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        })
    }

    fn job(id: u64, gpus: usize) -> Job {
        Job::builder(JobId(id), ModelKind::Vgg16, gpus).build()
    }

    fn core_with_events() -> ServiceCore {
        let cfg = ServiceConfig {
            event_log: true,
            ..ServiceConfig::default()
        };
        ServiceCore::new(cluster(), cfg)
    }

    #[test]
    fn submit_place_complete_lifecycle_updates_counters_and_status() {
        let mut core = core_with_events();
        core.apply(Command::Submit(job(0, 4)));
        assert_eq!(core.status(JobId(0)), JobStatus::Pending);
        assert_eq!(core.place_pass(), 1);
        assert_eq!(core.status(JobId(0)), JobStatus::Running);
        assert_eq!(core.free_gpus(), 32 - 4);
        core.apply(Command::Complete(JobId(0)));
        assert_eq!(core.status(JobId(0)), JobStatus::Unknown);
        assert_eq!(core.free_gpus(), 32);
        let c = core.counters();
        assert_eq!((c.submitted, c.placed, c.completed), (1, 1, 1));
        assert_eq!(c.unknown_ops, 0);
    }

    #[test]
    fn queue_cap_rejects_and_counts_backpressure() {
        let cfg = ServiceConfig {
            queue_cap: 2,
            ..ServiceConfig::default()
        };
        let mut core = ServiceCore::new(cluster(), cfg);
        for i in 0..5 {
            core.apply(Command::Submit(job(i, 2)));
        }
        assert_eq!(core.pending_len(), 2);
        let c = *core.counters();
        assert_eq!((c.submitted, c.rejected), (2, 3));
        assert_eq!(c.max_queue_depth, 2);
    }

    /// A job of no GPU (the builder refuses one; the fields are public) is
    /// refused at the door, counted and logged as such, and leaves no
    /// trace in the queue, the watches or the session.
    #[test]
    fn a_zero_gpu_submit_is_refused() {
        let mut core = core_with_events();
        let mut empty = job(0, 1);
        empty.gpus = 0;
        core.apply(Command::Submit(empty));
        core.apply(Command::Submit(job(1, 4)));
        assert_eq!(core.status(JobId(0)), JobStatus::Unknown);
        assert_eq!((core.pending_len(), core.watches.len()), (1, 1));
        assert_eq!(core.place_pass(), 1);
        let c = *core.counters();
        assert_eq!((c.submitted, c.rejected, c.placed, c.deferrals), (1, 1, 1, 0));
        assert_eq!(core.events()[0], "reject id=j0 kind=no-gpus");
        assert_eq!(core.free_gpus(), 32 - 4);
    }

    /// A value FindSubset cannot weigh — NaN, ±∞, zero, negative; the
    /// builder refuses each, the fields are public — is refused at the door
    /// and logged as such. Queued, a NaN-valued job would never be selected
    /// and would keep the take-all fast path off, and an infinite one makes
    /// the knapsack take nothing after it; refused, they leave the four
    /// 8-GPU jobs behind them to fill the 32 GPUs in one pass.
    #[test]
    fn a_submit_of_a_value_findsubset_cannot_weigh_is_refused() {
        let mut core = core_with_events();
        for (i, value) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0]
            .into_iter()
            .enumerate()
        {
            let mut bad = job(i as u64, 4);
            bad.value = value;
            core.apply(Command::Submit(bad));
        }
        for id in 10..14 {
            core.apply(Command::Submit(job(id, 8)));
        }
        assert_eq!((core.pending_len(), core.watches.len()), (4, 4));
        assert_eq!(core.status(JobId(0)), JobStatus::Unknown);
        assert_eq!(core.place_pass(), 4);
        let c = *core.counters();
        assert_eq!(
            (c.submitted, c.rejected, c.placed, c.deferrals),
            (4, 5, 4, 0)
        );
        let refused: Vec<String> = (0..5)
            .map(|i| format!("reject id=j{i} kind=bad-value"))
            .collect();
        assert_eq!(core.events()[..5], refused);
        assert_eq!(core.free_gpus(), 0);
    }

    #[test]
    fn cancel_and_complete_cover_pending_running_and_unknown() {
        let mut core = core_with_events();
        core.apply(Command::Submit(job(0, 4)));
        core.apply(Command::Submit(job(1, 4)));
        core.apply(Command::Cancel(JobId(0))); // pending
        assert_eq!(core.place_pass(), 1);
        core.apply(Command::Cancel(JobId(1))); // running
        core.apply(Command::Cancel(JobId(9))); // unknown
        core.apply(Command::Submit(job(2, 4)));
        core.apply(Command::Complete(JobId(2))); // pending
        core.apply(Command::Complete(JobId(9))); // unknown
        let c = *core.counters();
        assert_eq!(c.cancelled_pending, 1);
        assert_eq!(c.cancelled_running, 1);
        assert_eq!(c.completed_pending, 1);
        assert_eq!(c.unknown_ops, 2);
        assert_eq!(core.free_gpus(), 32);
        assert_eq!(core.pending_len(), 0);
    }

    /// `status` and `retire` ask `watches` where a job stands and search
    /// the queue only on a hit. With the queue 192 deep they must answer
    /// as a scan of it does — for a pending, a running and an unknown id —
    /// count and log the same, and leave the queue in order.
    #[test]
    fn a_deep_queue_answers_as_a_scan_of_it_would() {
        let mut core = core_with_events();
        for id in 0..200 {
            core.apply(Command::Submit(job(id, 4)));
        }
        assert_eq!(core.place_pass(), 8);
        let queued: Vec<JobId> = core.pending.iter().map(|j| j.id).collect();
        assert_eq!(queued.len(), 192);
        for id in (0..210).map(JobId) {
            let scanned = if queued.contains(&id) {
                JobStatus::Pending
            } else if core.session.is_running(id) {
                JobStatus::Running
            } else {
                JobStatus::Unknown
            };
            assert_eq!(core.status(id), scanned, "{id}");
        }
        let (deep, deeper) = (queued[150], queued[20]);
        let (running, also_running) = (core.session.running()[3].id, core.session.running()[5].id);
        let stranger = JobId(999);
        let logged = core.events().len();
        core.apply(Command::Cancel(deep));
        core.apply(Command::Complete(deeper));
        core.apply(Command::Cancel(running));
        core.apply(Command::Complete(also_running));
        core.apply(Command::Cancel(stranger));
        core.apply(Command::Complete(stranger));
        let c = *core.counters();
        assert_eq!((c.cancelled_pending, c.completed_pending), (1, 1));
        assert_eq!((c.cancelled_running, c.completed, c.unknown_ops), (1, 1, 2));
        assert_eq!(
            core.events()[logged..],
            [
                format!("cancel id={deep} kind=pending"),
                format!("complete id={deeper} kind=pending"),
                format!("cancel id={running} kind=running"),
                format!("complete id={also_running} kind=running"),
                format!("cancel id={stranger} kind=unknown"),
                format!("complete id={stranger} kind=unknown"),
            ]
        );
        let left: Vec<JobId> = core.pending.iter().map(|j| j.id).collect();
        let want: Vec<JobId> =
            queued.iter().copied().filter(|&id| id != deep && id != deeper).collect();
        assert_eq!(left, want);
        assert_eq!(core.watches.len(), left.len());
        for id in [deep, deeper, running, also_running, stranger] {
            assert_eq!(core.status(id), JobStatus::Unknown, "{id}");
        }
        // A retired pending id is free again.
        core.apply(Command::Submit(job(deep.0, 4)));
        assert_eq!(core.status(deep), JobStatus::Pending);
    }

    #[test]
    fn ledger_refusals_are_counted_apart_from_unknown_jobs() {
        let mut core = core_with_events();
        core.apply(Command::Submit(job(0, 6)));
        assert_eq!(core.place_pass(), 1);
        // Books in disagreement: the flat ledger already holds job 0's GPUs.
        assert!(core.session.precredit_flat_ledger(JobId(0)));
        core.apply(Command::Complete(JobId(0)));
        core.apply(Command::Cancel(JobId(0)));
        core.apply(Command::Complete(JobId(9))); // a stale id
        let c = *core.counters();
        assert_eq!((c.ledger_errors, c.unknown_ops), (2, 1));
        assert_eq!((c.completed, c.cancelled_running), (0, 0));
        assert_eq!(core.status(JobId(0)), JobStatus::Running, "a refused job keeps running");
        let events = core.events();
        assert_eq!(
            events[events.len() - 3..],
            [
                "complete id=j0 kind=ledger-error",
                "cancel id=j0 kind=ledger-error",
                "complete id=j9 kind=unknown",
            ]
        );
    }

    #[test]
    fn a_pass_over_an_empty_queue_still_settles_the_completions() {
        let mut core = core_with_events();
        for (i, gpus) in [6, 9, 5].into_iter().enumerate() {
            core.apply(Command::Submit(job(i as u64, gpus)));
        }
        assert_eq!(core.place_pass(), 3);
        assert!(core.session().is_settled());
        core.apply(Command::Complete(JobId(0)));
        core.apply(Command::Complete(JobId(2)));
        assert!(!core.session().is_settled(), "completions only stage");
        // Nothing is queued, so no batch runs — the state a caller reads
        // after the pass must be exact all the same.
        assert_eq!(core.place_pass(), 0);
        assert!(core.session().is_settled());
        assert_eq!(core.session().audit_state(), Ok(()));
        assert_eq!(core.counters().batches, 1, "an empty pass is not a batch");
    }

    #[test]
    fn deferred_jobs_age_and_eventually_place() {
        let mut core = core_with_events();
        // 32 GPUs: the 30-GPU job and the two 8s cannot coexist.
        core.apply(Command::Submit(job(0, 30)));
        core.apply(Command::Submit(job(1, 8)));
        core.apply(Command::Submit(job(2, 8)));
        let placed_first = core.place_pass();
        assert!(placed_first > 0);
        assert!(core.pending_len() > 0, "something must defer");
        assert!(core.counters().deferrals > 0);
        // Free everything, then the deferred remainder places.
        let running: Vec<JobId> = (0..3)
            .map(JobId)
            .filter(|&id| core.status(id) == JobStatus::Running)
            .collect();
        for id in running {
            core.apply(Command::Complete(id));
        }
        let placed_second = core.place_pass();
        assert!(placed_second > 0);
        assert_eq!(core.pending_len(), 0);
    }

    #[test]
    fn query_replies_over_the_channel() {
        let mut core = core_with_events();
        core.apply(Command::Submit(job(0, 4)));
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        core.apply(Command::Query(JobId(0), Some(tx)));
        assert_eq!(rx.recv(), Ok(JobStatus::Pending));
        assert_eq!(core.counters().queries, 1);
    }

    #[test]
    fn identical_command_streams_produce_identical_event_logs() {
        let run = || {
            let mut core = core_with_events();
            for i in 0..20 {
                core.apply(Command::Submit(job(i, (i as usize % 7) + 1)));
                if i % 4 == 3 {
                    let _ = core.place_pass();
                }
                if i % 5 == 4 {
                    core.apply(Command::Complete(JobId(i - 3)));
                }
            }
            let _ = core.place_pass();
            core.finish()
        };
        let a = run();
        let b = run();
        assert!(!a.events.is_empty());
        assert_eq!(a.events, b.events);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn report_merges_placer_perf_and_latency_histogram() {
        let mut core = core_with_events();
        core.apply(Command::Submit(job(0, 4)));
        let _ = core.place_pass();
        let report = core.finish();
        assert_eq!(report.perf.timer_count("place_pass"), 1);
        assert_eq!(report.perf.timer_count("place_batch"), 1, "placer perf merged");
        let hist = report.perf.latency("placement_latency").expect("histogram recorded");
        assert_eq!(hist.count(), 1);
        assert_eq!(report.running_left, 1);
    }
}
