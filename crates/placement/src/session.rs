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
//! * the **authoritative GPU ledger** (the [`Cluster`]) lives inside the
//!   session, debited on placement and credited on completion;
//! * the **flat arenas** ([`FlatBatch`]: topology mirror, free-GPU ledger,
//!   server-class index, stamp masks) are built once and mutated in step
//!   with the cluster; the index catches up from the change journals the
//!   ledger and the estimator keep, so a completion costs the next
//!   placement only the servers it touched;
//! * the **warm water-filling estimator** ([`IncrementalEstimator`])
//!   mirrors the running set in insertion order, so a batch starts from
//!   the converged steady state instead of re-solving it.
//!
//! The results are **bit-identical** to driving a `JobManager` +
//! [`NetPackPlacer`] through the same sequence of batches and completions
//! (pinned by the `session_equivalence` integration test): the estimator's
//! push/pop/remove contract guarantees its state matches a from-scratch
//! solve over the surviving insertion order, and the session replays
//! exactly the float-op sequence of the stateless
//! [`place_batch`](crate::Placer::place_batch) — including the
//! selective-INA step, after which placements whose INA flag changed are
//! popped off the estimator tail and re-pushed with their final flags so
//! the warm state stays equal to the manager's.

use crate::flat::FlatBatch;
use crate::knapsack::subset_in_placement_order;
use crate::netpack::{record_waterfill, NetPackConfig, NetPackPlacer};
use crate::placer::{BatchOutcome, RunningJob};
use netpack_metrics::{PerfCounters, Stopwatch};
use netpack_model::Placement;
use netpack_topology::{Cluster, JobId, TopologyError};
use netpack_waterfill::{IncrementalEstimator, PlacedJob, SteadyState};
use netpack_workload::Job;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors from the session's bookkeeping API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// [`NetPackSession::complete`] was called for a job that is not
    /// running in this session.
    UnknownJob(JobId),
    /// The GPU ledger rejected a release (internal inconsistency — the
    /// session's books no longer match the cluster's).
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
/// complete jobs, never rebuild. See the [module docs](self) for what is
/// kept warm and why the results match the stateless path bit for bit.
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
    cluster: Cluster,
    fb: FlatBatch,
    /// Warm estimator; insertion order always mirrors `running` — the
    /// bit-identity contract with a from-scratch solve depends on it.
    tracker: IncrementalEstimator,
    running: Vec<RunningJob>,
    /// Id → position in `running` for O(log n) completion lookup.
    index: BTreeMap<JobId, usize>,
    /// Per-batch scratch: the INA flag each placement carried when it was
    /// pushed onto the estimator, to detect selective-INA toggles.
    pushed_ina: Vec<bool>,
}

impl fmt::Debug for NetPackSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetPackSession")
            .field("running", &self.running.len())
            .field("free_gpus", &self.cluster.free_gpus())
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
            index: BTreeMap::new(),
            pushed_ina: Vec::new(),
        }
    }

    /// The cluster; its GPU ledger reflects every running job.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Jobs currently running, in placement (= estimator insertion) order.
    pub fn running(&self) -> &[RunningJob] {
        &self.running
    }

    /// Whether `id` is running in this session.
    pub fn is_running(&self, id: JobId) -> bool {
        self.index.contains_key(&id)
    }

    /// Free GPUs on the authoritative ledger.
    pub fn free_gpus(&self) -> usize {
        self.cluster.free_gpus()
    }

    /// The warm water-filled steady state over the running set.
    pub fn state(&self) -> &SteadyState {
        self.tracker.state()
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

    /// Place a batch against the warm state: Algorithm 2's four steps,
    /// identical float-for-float to the stateless path, with the
    /// running set, flat arenas, and steady state carried over instead of
    /// rebuilt. Placed jobs join the running set; callers retire them via
    /// [`complete`](Self::complete).
    ///
    /// The caller owns batch policy (ordering is canonicalized internally
    /// exactly as the placer does: value-descending, ties by id) and
    /// deferred-job handling: deferred jobs are returned, not retried.
    pub fn place_batch(&mut self, batch: &[Job]) -> BatchOutcome {
        let mut perf = std::mem::take(&mut self.placer.perf);
        let batch_start = Stopwatch::start();
        let stats_before = *self.tracker.stats();
        let mut outcome = BatchOutcome::default();

        // Step 1: FindSubset over the authoritative free-GPU count, then
        // value-descending placement order.
        let ordered =
            subset_in_placement_order(batch, self.cluster.free_gpus(), &mut outcome.deferred);

        // Steps 2-3 per job against the warm estimator; both ledgers (the
        // flat mirror and the cluster) advance together.
        self.pushed_ina.clear();
        for job in ordered {
            let one_start = Stopwatch::start();
            let placed = self.placer.place_one_flat(
                &mut self.fb,
                &self.cluster,
                &mut self.tracker,
                job,
                &mut perf,
            );
            perf.record("place_one", one_start.elapsed());
            match placed {
                Some(placement) if self.fb.commit(&placement) => {
                    if !allocate_all(&mut self.cluster, &placement) {
                        // The two ledgers disagreed — refuse the placement
                        // rather than panic, and keep them in step (undoing
                        // the commit just made cannot be refused).
                        let _ = self.fb.credit(&placement);
                        outcome.deferred.push(job.clone());
                        continue;
                    }
                    let start = Stopwatch::start();
                    self.tracker
                        .push(&self.cluster, PlacedJob::new(job.id, &self.cluster, &placement));
                    perf.record("waterfill_solve", start.elapsed());
                    self.pushed_ina.push(placement.ina_enabled());
                    outcome.placed.push((job.clone(), placement));
                }
                _ => outcome.deferred.push(job.clone()),
            }
        }

        // Step 4: selective INA over the final steady state (running +
        // batch, batch still INA-on — exactly what the tracker holds).
        self.placer.enable_ina(
            &self.cluster,
            &self.running,
            &mut outcome.placed,
            Some(self.tracker.state()),
            &mut perf,
        );

        // Reconcile the estimator tail with the post-INA placements: the
        // batch occupies the tail in placement order, so popping down to
        // the first toggled job and re-pushing with final flags leaves the
        // warm state equal to a from-scratch solve over the running set —
        // the invariant every later batch leans on.
        let first_toggled = outcome
            .placed
            .iter()
            .zip(&self.pushed_ina)
            .position(|((_, p), &was)| p.ina_enabled() != was);
        if let Some(first) = first_toggled {
            let start = Stopwatch::start();
            for _ in first..outcome.placed.len() {
                let _ = self.tracker.pop(&self.cluster);
            }
            for (job, p) in &outcome.placed[first..] {
                self.tracker
                    .push(&self.cluster, PlacedJob::new(job.id, &self.cluster, p));
            }
            perf.record("waterfill_solve", start.elapsed());
            perf.incr("ina_reconcile_repushes", (outcome.placed.len() - first) as u64);
        }

        // The batch joins the running set with its final placements.
        for (job, p) in &outcome.placed {
            self.index.insert(job.id, self.running.len());
            self.running.push(RunningJob {
                id: job.id,
                gradient_gbits: job.gradient_gbits(),
                placement: p.clone(),
            });
        }

        record_waterfill(&mut perf, *self.tracker.stats() - stats_before);
        perf.record("place_batch", batch_start.elapsed());
        self.placer.perf = perf;
        outcome
    }

    /// Retire a running job: release its GPUs on both ledgers and drop it
    /// from the warm estimator, preserving the insertion order of every
    /// other job (an order-preserving remove, like `JobManager::finish`).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownJob`] if the id is not running;
    /// [`SessionError::Ledger`] if either ledger refuses the release (which
    /// means the session's books were already inconsistent). The release
    /// is all-or-nothing: on error both ledgers are unchanged and the job
    /// is still running.
    pub fn complete(&mut self, id: JobId) -> Result<RunningJob, SessionError> {
        let &idx = self.index.get(&id).ok_or(SessionError::UnknownJob(id))?;
        let placement = &self.running[idx].placement;
        release_all(&mut self.cluster, placement).map_err(SessionError::Ledger)?;
        if let Err(refusal) = self.fb.credit(placement) {
            // Re-allocating what was just released cannot fail.
            allocate_all(&mut self.cluster, placement);
            return Err(SessionError::Ledger(refusal));
        }
        self.index.remove(&id);
        let removed = self.running.remove(idx);
        for (i, rj) in self.running.iter().enumerate().skip(idx) {
            self.index.insert(rj.id, i);
        }
        let start = Stopwatch::start();
        self.tracker.remove(&self.cluster, id);
        self.placer.perf.record("waterfill_solve", start.elapsed());
        Ok(removed)
    }

    /// Test oracle: the persistent server index, with the pending change
    /// journals of the flat ledger and the warm estimator applied to a
    /// copy — and nothing a journal missed healed by a rescan — must equal
    /// a from-scratch build over the warm steady state.
    #[doc(hidden)]
    pub fn audit_index(&self) -> Result<(), String> {
        self.fb.audit_index(&self.tracker)
    }

    /// Fault injection for tests: credit running job `id`'s GPUs back on
    /// the flat ledger alone, so the books disagree and the next
    /// [`complete`](Self::complete) of `id` is refused with
    /// [`SessionError::Ledger`]. `false` if `id` is not running.
    #[doc(hidden)]
    pub fn precredit_flat_ledger(&mut self, id: JobId) -> bool {
        match self.index.get(&id) {
            Some(&idx) => self.fb.credit(&self.running[idx].placement).is_ok(),
            None => false,
        }
    }
}

/// Release every worker on the cluster ledger, rolling back on failure.
fn release_all(cluster: &mut Cluster, placement: &Placement) -> Result<(), TopologyError> {
    for (i, &(s, w)) in placement.workers().iter().enumerate() {
        if let Err(e) = cluster.release_gpus(s, w) {
            for &(s2, w2) in &placement.workers()[..i] {
                // Re-allocating what this loop just released cannot fail.
                let _ = cluster.allocate_gpus(s2, w2);
            }
            return Err(e);
        }
    }
    Ok(())
}

/// Allocate every worker on the cluster ledger, rolling back on failure.
fn allocate_all(cluster: &mut Cluster, placement: &Placement) -> bool {
    for (i, &(s, w)) in placement.workers().iter().enumerate() {
        if cluster.allocate_gpus(s, w).is_err() {
            for &(s2, w2) in &placement.workers()[..i] {
                // Releasing what this loop just allocated cannot fail.
                let _ = cluster.release_gpus(s2, w2);
            }
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn place_and_complete_round_trips_the_ledgers() {
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
        assert_eq!(s.complete(JobId(0)), Err(SessionError::UnknownJob(JobId(0))));
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
        let placed: Vec<PlacedJob> = s
            .running()
            .iter()
            .map(|r| r.to_placed(s.cluster()))
            .collect();
        let fresh = IncrementalEstimator::new(s.cluster(), &placed);
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
        s.place_batch(&[job(0, 6)]);
        let placement = s.running()[0].placement.clone();
        assert!(placement.workers().len() >= 2, "a spanning job");
        let flat_before = s.fb.ledger().to_vec();

        // The cluster refuses the *last* worker's release: the workers
        // before it must not stay released on either ledger.
        let &(last, w) = placement.workers().last().unwrap();
        s.cluster.release_gpus(last, w).unwrap();
        let err = s.complete(JobId(0)).unwrap_err();
        assert!(matches!(err, SessionError::Ledger(TopologyError::ReleaseOverflow { .. })));
        assert!(s.is_running(JobId(0)));
        assert_eq!(s.free_gpus(), 32 - 6 + w);
        assert_eq!(s.fb.ledger(), flat_before);
        assert!(s.state().job_rate_gbps(JobId(0)).is_some());
        s.cluster.allocate_gpus(last, w).unwrap();

        // The flat ledger refuses (it was already credited once): the
        // cluster's release is rolled back and the job keeps running.
        s.fb.credit(&placement).unwrap();
        let err = s.complete(JobId(0)).unwrap_err();
        assert!(matches!(err, SessionError::Ledger(TopologyError::ReleaseOverflow { .. })));
        assert!(s.is_running(JobId(0)));
        assert_eq!(s.free_gpus(), 32 - 6);
        assert!(s.fb.commit(&placement));

        // Books back in step: the completion now goes through, once.
        s.complete(JobId(0)).unwrap();
        assert_eq!(s.free_gpus(), 32);
        assert_eq!(s.complete(JobId(0)), Err(SessionError::UnknownJob(JobId(0))));
    }

    #[test]
    fn deferred_jobs_do_not_leak_gpus() {
        let mut s = NetPackSession::new(cluster(), NetPackConfig::default());
        // 32 GPUs, 46 demanded: the knapsack must defer something, and
        // whatever defers must not touch either ledger.
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
