//! Persistent placement session — the continuous-service fast path.
//!
//! [`Placer::place_batch`] is stateless: every call rebuilds the flat
//! topology mirror and re-solves the water-filled steady state of the
//! whole running set before placing a single job. A closed-batch
//! experiment pays that once; a long-running service placing thousands of
//! small batches pays it on every one, and at warehouse scale the rebuild
//! dwarfs the placement itself. [`NetPackSession`] keeps all of that state
//! warm across batches:
//!
//! * the **flat arenas** ([`FlatBatch`]: topology mirror, server-class
//!   index, stamp masks) are built once, and with them the **GPU ledger** —
//!   the session's one book of free GPUs, debited by a placement's commit
//!   and credited by its completion, each all-or-nothing. The [`Cluster`]
//!   the session was opened over is static information (topology,
//!   capacities) and is never written. The index catches up from the
//!   change journals the ledger and the estimator keep, so a completion
//!   costs the next placement only the servers it touched;
//! * the **warm water-filling estimator** ([`IncrementalEstimator`])
//!   mirrors the running set in insertion order, so a batch starts from
//!   the converged steady state instead of re-solving it.
//!
//! # Completion is ledger-now, estimator-at-next-pass
//!
//! Algorithm 1's steady state is consumed only when Algorithm 2 scores a
//! job, and dozens of completions arrive between two passes, many in the
//! same one or two components. So [`complete`](NetPackSession::complete)
//! credits the ledger and drops the running-set entry at once — the next
//! pass must see the GPUs — but only *stages* the estimator removal;
//! [`place_batch`](NetPackSession::place_batch) settles as its first step,
//! re-solving each component the completions touched once, and always
//! returns settled. Inside a pass nothing can coalesce: every job is
//! scored against the state the previous push left, so those pushes stay
//! eager. [`state`](NetPackSession::state) is exact whenever
//! [`is_settled`](NetPackSession::is_settled); a reader between passes
//! calls [`settle`](NetPackSession::settle) first.
//!
//! The results are **bit-identical** to driving a stateless-books
//! `JobManager` (`JobManager::new`) + [`NetPackPlacer`] through the same
//! sequence of batches and completions (pinned by the
//! `service_equivalence` integration test, and by the flow simulator's
//! `run == run_reference` tests, whose production side is a `JobManager`
//! opened warm — a thin queue in front of one of these sessions, handed
//! out by [`Placer::open_session`](crate::Placer::open_session)): both run the
//! same batch loop (`NetPackPlacer::place_batch_on`), the stateless placer
//! on a `(ledger, estimator)` pair built for the batch, the session on the
//! pair it keeps, and the estimator's settled state is a function of the
//! surviving insertion order alone — equal to a from-scratch solve over it
//! wherever the settles fell. After the loop's selective-INA step the
//! session pops the placements from the first one switched off to the end
//! of the batch off the estimator tail and re-pushes them with their final
//! flags (staged, one settle), so the warm state stays equal to the
//! manager's.
//!
//! A caller that caches per-job rates between reads of
//! [`state`](NetPackSession::state) — the flow simulator — asks
//! [`rates_changed_since`](NetPackSession::rates_changed_since) which jobs
//! the settles since its last read re-solved; the reconciliation's pops and
//! re-pushes are stamped like any other op, so it needs no special case.

use crate::flat::FlatBatch;
use crate::netpack::{record_waterfill, NetPackConfig, NetPackPlacer};
use crate::placer::{AdmissionIndex, BatchOutcome, RunningJob};
use netpack_metrics::{PerfCounters, Stopwatch};
use netpack_topology::{Cluster, JobId, TopologyError};
use netpack_waterfill::{estimate, IncrementalEstimator, PlacedJob, SteadyState, WaterfillStats};
use netpack_workload::Job;
use std::error::Error;
use std::fmt;

/// Errors from the session's bookkeeping API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// [`NetPackSession::complete`] was called for a job that is not
    /// running in this session.
    UnknownJob(JobId),
    /// The GPU ledger refused the credit: the job's GPUs were not all
    /// debited any more (a double credit — the books no longer match the
    /// running set). Nothing was changed.
    Ledger(TopologyError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownJob(id) => write!(f, "job {id} is not running"),
            SessionError::Ledger(e) => write!(f, "gpu ledger error: {e}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Ledger(e) => Some(e),
            SessionError::UnknownJob(_) => None,
        }
    }
}

/// A long-lived NetPack placement engine over one cluster: place batches,
/// complete jobs, never rebuild. The module docs of `session.rs` say what
/// is kept warm and why the results match the stateless path bit for bit.
///
/// # Example
///
/// ```
/// use netpack_placement::{NetPackConfig, NetPackSession};
/// use netpack_topology::{Cluster, ClusterSpec, JobId};
/// use netpack_workload::{Job, ModelKind};
///
/// let cluster = Cluster::new(ClusterSpec::paper_testbed());
/// let mut session = NetPackSession::new(cluster, NetPackConfig::default());
/// let job = Job::builder(JobId(0), ModelKind::Vgg16, 4).build();
/// let outcome = session.place_batch(std::slice::from_ref(&job));
/// assert_eq!(outcome.placed.len(), 1);
/// session.complete(JobId(0)).unwrap();
/// assert!(session.running().is_empty());
/// ```
pub struct NetPackSession {
    placer: NetPackPlacer,
    /// Static information only; the free GPUs are `fb`'s ledger's.
    cluster: Cluster,
    fb: FlatBatch,
    /// Warm estimator; insertion order always mirrors `running` — the
    /// bit-identity contract with a from-scratch solve depends on it.
    tracker: IncrementalEstimator,
    running: Vec<RunningJob>,
    /// Id → position in `running` (and so in `tracker`).
    index: AdmissionIndex,
    /// The tracker's counters as of the last fold into the perf counters.
    stats_recorded: WaterfillStats,
}

impl fmt::Debug for NetPackSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetPackSession")
            .field("running", &self.running.len())
            .field("free_gpus", &self.free_gpus())
            .finish()
    }
}

impl NetPackSession {
    /// Open a session over `cluster` with no jobs running.
    pub fn new(cluster: Cluster, config: NetPackConfig) -> Self {
        let fb = FlatBatch::new(&cluster);
        let tracker = IncrementalEstimator::new(&cluster, &[]);
        NetPackSession {
            placer: NetPackPlacer::new(config),
            cluster,
            fb,
            tracker,
            running: Vec::new(),
            index: AdmissionIndex::default(),
            stats_recorded: WaterfillStats::default(),
        }
    }

    /// Jobs currently running, in placement (= estimator insertion) order.
    pub fn running(&self) -> &[RunningJob] {
        &self.running
    }

    /// Whether `id` is running in this session.
    pub fn is_running(&self, id: JobId) -> bool {
        self.index.contains(id)
    }

    /// Free GPUs on the ledger.
    pub fn free_gpus(&self) -> usize {
        self.fb.ledger().total_free()
    }

    /// The warm water-filled steady state over the running set: exact —
    /// bit-identical to a from-scratch solve — whenever
    /// [`is_settled`](Self::is_settled), which every
    /// [`place_batch`](Self::place_batch) guarantees on return. After a
    /// [`complete`](Self::complete) the retired job is gone from it but
    /// the link numbers and the other jobs' rates are those of the last
    /// settle until [`settle`](Self::settle) or the next batch.
    pub fn state(&self) -> &SteadyState {
        self.tracker.state()
    }

    /// Whether no completion is waiting to be absorbed into
    /// [`state`](Self::state).
    pub fn is_settled(&self) -> bool {
        self.tracker.is_settled()
    }

    /// Absorb the completions staged since the last pass: one solve per
    /// component they touched. [`place_batch`](Self::place_batch) does
    /// this itself; call it to read an exact [`state`](Self::state) in
    /// between.
    pub fn settle(&mut self) {
        if self.tracker.is_settled() {
            return;
        }
        let start = Stopwatch::start();
        self.tracker.settle(&self.cluster);
        self.placer.perf.record("waterfill_solve", start.elapsed());
    }

    /// The warm estimator's work counters since the session was opened.
    pub fn waterfill_stats(&self) -> &WaterfillStats {
        self.tracker.stats()
    }

    /// The number of the estimator's last counted settle: what a reader of
    /// [`rates_changed_since`](Self::rates_changed_since) remembers.
    pub fn solve_epoch(&self) -> u64 {
        self.tracker.solve_epoch()
    }

    /// The running jobs whose rate in [`state`](Self::state) was written
    /// after the settle numbered `seen` — see
    /// [`IncrementalEstimator::changed_since`]. Read it when
    /// [`is_settled`](Self::is_settled).
    pub fn rates_changed_since(&self, seen: u64) -> impl Iterator<Item = JobId> + '_ {
        self.tracker.changed_since(seen)
    }

    /// Perf counters accumulated by the underlying placer (same names as
    /// [`NetPackPlacer::perf`], plus the batch-level phases).
    pub fn perf(&self) -> &PerfCounters {
        self.placer.perf()
    }

    /// Move the accumulated perf counters out, leaving a fresh set.
    pub fn take_perf(&mut self) -> PerfCounters {
        self.placer.take_perf()
    }

    /// Place a batch against the warm state: Algorithm 2's four steps —
    /// the same loop the stateless path runs — with the running set, flat
    /// arenas, and steady state carried over instead of rebuilt. Placed
    /// jobs join the running set; callers retire them via
    /// [`complete`](Self::complete).
    ///
    /// The caller owns batch policy (ordering is canonicalized internally
    /// exactly as the placer does: value-descending, ties by id) and
    /// deferred-job handling: deferred jobs are returned, not retried.
    pub fn place_batch(&mut self, batch: &[Job]) -> BatchOutcome {
        let batch_start = Stopwatch::start();
        // Settle first: the completions since the last pass, each
        // component they touched solved once.
        self.settle();
        debug_assert_eq!(self.audit_state(), Ok(()));
        debug_assert_eq!(self.audit_ledger(), Ok(()));
        let mut perf = std::mem::take(&mut self.placer.perf);
        let outcome = self.placer.place_batch_on(
            &mut self.fb,
            &mut self.tracker,
            &self.cluster,
            &self.running,
            batch,
            &mut perf,
        );

        // Reconcile the estimator tail with the post-INA placements: the
        // batch occupies the tail in placement order, every job pushed
        // INA-on, so popping down to the first one switched off and
        // re-pushing with final flags leaves the warm state equal to a
        // from-scratch solve over the running set — the invariant every
        // later batch leans on. Nobody reads the state in between, so the
        // pops and pushes are staged and settled once.
        if let Some(first) = outcome.placed.iter().position(|(_, p)| !p.ina_enabled()) {
            let start = Stopwatch::start();
            for _ in first..outcome.placed.len() {
                let _ = self.tracker.stage_pop();
            }
            for (job, p) in &outcome.placed[first..] {
                self.tracker
                    .stage_push(PlacedJob::new(job.id, &self.cluster, p));
            }
            self.tracker.settle(&self.cluster);
            perf.record("waterfill_solve", start.elapsed());
            perf.incr(
                "ina_reconcile_repushes",
                (outcome.placed.len() - first) as u64,
            );
        }

        // The batch joins the running set with its final placements.
        for (job, p) in &outcome.placed {
            self.index.admit(job.id);
            self.running.push(RunningJob {
                id: job.id,
                gradient_gbits: job.gradient_gbits(),
                placement: p.clone(),
            });
        }

        // Everything the tracker did since the last batch: the staged
        // completions, the settle above, this batch's pushes.
        let stats = *self.tracker.stats();
        record_waterfill(&mut perf, stats - self.stats_recorded);
        self.stats_recorded = stats;
        perf.record("place_batch", batch_start.elapsed());
        self.placer.perf = perf;
        outcome
    }

    /// Retire a running job: credit its GPUs back on the ledger, drop it
    /// from the running set, and *stage* its removal from the warm
    /// estimator, preserving the insertion order of every other job (an
    /// order-preserving remove, like `JobManager::finish`). The estimator
    /// solve waits for the next [`place_batch`](Self::place_batch) or
    /// [`settle`](Self::settle); see [`state`](Self::state).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownJob`] if the id is not running;
    /// [`SessionError::Ledger`] if the ledger refuses the credit (some of
    /// the job's GPUs were already free — the books had been credited
    /// twice). The credit is all-or-nothing: on error the ledger is
    /// unchanged, nothing is staged, and the job is still running.
    pub fn complete(&mut self, id: JobId) -> Result<RunningJob, SessionError> {
        let idx = self
            .index
            .position(id)
            .ok_or(SessionError::UnknownJob(id))?;
        self.fb
            .credit(&self.running[idx].placement)
            .map_err(SessionError::Ledger)?;
        self.index.retire(id, idx);
        // `running` is the tracker's insertion order, so the position is
        // the tracker's too.
        let staged = self.tracker.stage_remove_at(idx, id);
        debug_assert!(staged, "running set and estimator order diverged at {idx}");
        Ok(self.running.remove(idx))
    }

    /// Test oracle: the persistent server index, with the pending change
    /// journals of the flat ledger and the warm estimator applied to a
    /// copy — and nothing a journal missed healed by a rescan — must equal
    /// a from-scratch build over the warm steady state.
    #[doc(hidden)]
    pub fn audit_index(&self) -> Result<(), String> {
        self.fb.audit_index(&self.tracker)
    }

    /// Test oracle for the staged completions: the session is settled and
    /// its steady state equals, bit for bit, Algorithm 1 run from scratch
    /// over the running set in placement order.
    #[doc(hidden)]
    pub fn audit_state(&self) -> Result<(), String> {
        if !self.is_settled() {
            return Err("staged completions not settled".to_string());
        }
        let placed: Vec<PlacedJob> = self
            .running
            .iter()
            .map(|r| r.to_placed(&self.cluster))
            .collect();
        match self
            .tracker
            .state()
            .first_difference(&estimate(&self.cluster, &placed))
        {
            None => Ok(()),
            Some(field) => Err(format!("warm {field} differ from a from-scratch estimate")),
        }
    }

    /// Test oracle for the one GPU ledger: it equals a recount — the
    /// cluster the session was opened over minus the running placements —
    /// per server, in its free-GPU histogram, and in
    /// [`free_gpus`](Self::free_gpus).
    #[doc(hidden)]
    pub fn audit_ledger(&self) -> Result<(), String> {
        self.fb
            .ledger()
            .audit(&self.cluster, self.running.iter().map(|r| &r.placement))
    }

    /// Fault injection for tests: credit running job `id`'s GPUs back on
    /// the ledger while it keeps running, so the books are wrong and the
    /// next [`complete`](Self::complete) of `id` is refused with
    /// [`SessionError::Ledger`]. `false` if `id` is not running.
    #[doc(hidden)]
    pub fn precredit_flat_ledger(&mut self, id: JobId) -> bool {
        match self.index.position(id) {
            Some(idx) => self.fb.credit(&self.running[idx].placement).is_ok(),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_model::Placement;
    use netpack_topology::ClusterSpec;
    use netpack_workload::ModelKind;

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

    #[test]
    fn place_and_complete_round_trips_the_ledger() {
        let mut s = NetPackSession::new(cluster(), NetPackConfig::default());
        let out = s.place_batch(&[job(0, 4), job(1, 6)]);
        assert_eq!(out.placed.len(), 2);
        assert_eq!(s.free_gpus(), 32 - 10);
        assert!(s.is_running(JobId(1)));
        let r = s.complete(JobId(1)).unwrap();
        assert_eq!(r.id, JobId(1));
        assert_eq!(s.free_gpus(), 32 - 4);
        s.complete(JobId(0)).unwrap();
        assert_eq!(s.free_gpus(), 32);
        assert_eq!(
            s.complete(JobId(0)),
            Err(SessionError::UnknownJob(JobId(0)))
        );
    }

    #[test]
    fn batches_match_the_stateless_placer_from_cold() {
        // One batch from an idle cluster must equal the stateless path
        // exactly (same subset, same placements, same INA flags).
        let c = cluster();
        let batch: Vec<Job> = vec![job(0, 4), job(1, 6), job(2, 13), job(3, 2), job(4, 40)];
        let mut stateless = NetPackPlacer::default();
        let reference = crate::placer::Placer::place_batch(&mut stateless, &c, &[], &batch);
        let mut s = NetPackSession::new(c, NetPackConfig::default());
        let out = s.place_batch(&batch);
        assert_eq!(out.placed, reference.placed);
        assert_eq!(out.deferred, reference.deferred);
    }

    #[test]
    fn warm_state_matches_rebuilt_state_across_churn() {
        // After batches and completions, the warm estimator must agree
        // bit-for-bit with a from-scratch estimator over the running set
        // in insertion order.
        let mut s = NetPackSession::new(cluster(), NetPackConfig::default());
        s.place_batch(&[job(0, 6), job(1, 4), job(2, 9)]);
        s.complete(JobId(1)).unwrap();
        s.place_batch(&[job(3, 5), job(4, 2)]);
        let c = cluster();
        let placed: Vec<PlacedJob> = s.running().iter().map(|r| r.to_placed(&c)).collect();
        let fresh = IncrementalEstimator::new(&c, &placed);
        for r in s.running() {
            assert_eq!(
                s.state().job_rate_gbps(r.id).map(f64::to_bits),
                fresh.state().job_rate_gbps(r.id).map(f64::to_bits),
                "job {}",
                r.id
            );
        }
    }

    #[test]
    fn refused_completion_changes_nothing() {
        let mut s = NetPackSession::new(cluster(), NetPackConfig::default());
        s.place_batch(&[job(0, 6), job(1, 3)]);
        let placement = s.running()[0].placement.clone();
        assert!(placement.workers().len() >= 2, "a spanning job");
        assert_eq!(s.audit_ledger(), Ok(()));
        let untouched = |s: &NetPackSession, free: usize, ledger: &[u32]| {
            assert_eq!(s.fb.ledger().free(), ledger);
            assert_eq!(s.free_gpus(), free);
            assert!(s.is_running(JobId(0)));
            assert_eq!(s.running().len(), 2);
            assert!(s.is_settled(), "a refused completion stages nothing");
            assert!(s.state().job_rate_gbps(JobId(0)).is_some());
            assert_eq!(s.audit_state(), Ok(()));
            assert_eq!(s.audit_index(), Ok(()));
        };

        // Only the *last* worker's GPUs were credited already: the workers
        // before it must not be credited either.
        let &(last, w) = placement.workers().last().unwrap();
        let early = Placement::local(last, w);
        s.fb.credit(&early).unwrap();
        assert!(
            s.audit_ledger().is_err(),
            "the audit must see the early credit"
        );
        let before = s.fb.ledger().free().to_vec();
        let err = s.complete(JobId(0)).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Ledger(TopologyError::ReleaseOverflow { .. })
        ));
        untouched(&s, 32 - 9 + w, &before);
        assert!(s.fb.commit(&early));

        // The whole job was credited while it kept running: its completion
        // — a second credit — is refused whole.
        assert!(s.precredit_flat_ledger(JobId(0)));
        let before = s.fb.ledger().free().to_vec();
        let err = s.complete(JobId(0)).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Ledger(TopologyError::ReleaseOverflow { .. })
        ));
        untouched(&s, 32 - 3, &before);
        assert!(s.fb.commit(&placement));

        // Books restored: the completion now goes through, once.
        assert_eq!(s.audit_ledger(), Ok(()));
        s.complete(JobId(0)).unwrap();
        assert_eq!(s.free_gpus(), 32 - 3);
        assert_eq!(s.audit_ledger(), Ok(()));
        assert_eq!(
            s.complete(JobId(0)),
            Err(SessionError::UnknownJob(JobId(0)))
        );
    }

    #[test]
    fn completion_is_staged_until_the_next_settle() {
        let mut s = NetPackSession::new(cluster(), NetPackConfig::default());
        s.place_batch(&[job(0, 6), job(1, 4), job(2, 9)]);
        assert!(s.is_settled(), "a batch returns settled");
        assert_eq!(s.audit_state(), Ok(()));
        let stale = s.state().clone();
        // A spanning job retires: the ledger and the running set move
        // now, the link numbers wait.
        s.complete(JobId(0)).unwrap();
        assert!(!s.is_settled());
        assert_eq!(s.free_gpus(), 32 - 13);
        assert!(!s.is_running(JobId(0)));
        assert_eq!(s.state().job_rate_gbps(JobId(0)), None);
        assert_eq!(s.state().servers_flows(), stale.servers_flows());
        assert!(
            s.audit_state().is_err(),
            "the audit must see the staged removal"
        );
        s.settle();
        assert!(s.is_settled());
        assert_eq!(s.audit_state(), Ok(()));
        assert_ne!(s.state().servers_flows(), stale.servers_flows());
    }

    #[test]
    fn staged_completions_then_a_batch_equal_eager_completions() {
        // k completions absorbed by the batch's one settle must leave the
        // same placements and the same bits as settling after each.
        let first = [job(0, 6), job(1, 4), job(2, 9), job(3, 5), job(4, 3)];
        let second = [job(5, 7), job(6, 2), job(7, 5)];
        let run = |eager: bool| {
            let mut s = NetPackSession::new(cluster(), NetPackConfig::default());
            s.place_batch(&first);
            for id in [2, 0, 3] {
                s.complete(JobId(id)).unwrap();
                if eager {
                    s.settle();
                }
            }
            assert_eq!(s.is_settled(), eager);
            let out = s.place_batch(&second);
            assert_eq!(s.audit_state(), Ok(()));
            assert_eq!(s.audit_index(), Ok(()));
            (
                out.placed,
                out.deferred,
                s.state().clone(),
                s.perf().counter("waterfill_settles"),
            )
        };
        let (staged, eager) = (run(false), run(true));
        assert!(!staged.0.is_empty());
        assert_eq!((&staged.0, &staged.1), (&eager.0, &eager.1));
        assert_eq!(staged.2.first_difference(&eager.2), None);
        assert_eq!(
            eager.3 - staged.3,
            2,
            "three completions, one settle instead of three"
        );
    }

    #[test]
    fn deferred_jobs_do_not_leak_gpus() {
        let mut s = NetPackSession::new(cluster(), NetPackConfig::default());
        // 32 GPUs, 46 demanded: the knapsack must defer something, and
        // whatever defers must not touch the ledger.
        let out = s.place_batch(&[job(0, 30), job(1, 8), job(2, 8)]);
        assert!(!out.placed.is_empty());
        assert!(!out.deferred.is_empty());
        let booked: usize = out.placed.iter().map(|(j, _)| j.gpus).sum();
        assert_eq!(s.free_gpus(), 32 - booked);
        for (j, _) in &out.placed {
            s.complete(j.id).unwrap();
        }
        assert_eq!(s.free_gpus(), 32);
    }
}
