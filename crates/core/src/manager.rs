//! Job-manager implementation.
//!
//! The manager owns the authoritative GPU ledger, the pending queue and
//! the running set, and — once a caller has asked for it — a warm
//! [`IncrementalEstimator`] mirroring the running set in placement order.
//! The running set changes in [`JobManager::run_epoch`] and
//! [`JobManager::finish`]; the steady state is read in
//! [`JobManager::steady_state_incremental`]. So the first two only *stage*
//! their pushes and removals on the estimator (bookkeeping, no solve) and
//! the third settles: an epoch's placements and an event's completions
//! cost one solve per component they touched, and all water-filling work
//! lands inside the one call that reads its result.

use netpack_model::Placement;
use netpack_placement::{AdmissionIndex, Placer, RunningJob};
use netpack_topology::{Cluster, JobId, TopologyError};
use netpack_waterfill::{estimate, IncrementalEstimator, PlacedJob, SteadyState, WaterfillStats};
use netpack_workload::Job;
use std::error::Error;
use std::fmt;

/// Manager tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerConfig {
    /// Scheduling period in seconds (the paper batches arrivals and places
    /// them periodically; job lifetimes are hours, so 60 s is the default).
    pub epoch_s: f64,
    /// Additive value bump applied to every job that fails to be selected
    /// or placed in an epoch — the starvation-avoidance aging of step 1.
    pub aging_value_bump: f64,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            epoch_s: 60.0,
            aging_value_bump: 0.5,
        }
    }
}

/// Errors from the manager's bookkeeping API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ManagerError {
    /// [`JobManager::finish`] was called for a job that is not running.
    UnknownJob(JobId),
    /// The GPU ledger rejected an operation (internal inconsistency).
    Ledger(TopologyError),
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::UnknownJob(id) => write!(f, "job {id} is not running"),
            ManagerError::Ledger(e) => write!(f, "gpu ledger error: {e}"),
        }
    }
}

impl Error for ManagerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ManagerError::Ledger(e) => Some(e),
            ManagerError::UnknownJob(_) => None,
        }
    }
}

impl From<TopologyError> for ManagerError {
    fn from(e: TopologyError) -> Self {
        ManagerError::Ledger(e)
    }
}

/// The cluster-wide DT job manager (Fig. 4).
pub struct JobManager {
    cluster: Cluster,
    placer: Box<dyn Placer>,
    config: ManagerConfig,
    pending: Vec<Job>,
    running: Vec<(Job, Placement)>,
    /// Id → position in `running` for [`finish`](Self::finish).
    index: AdmissionIndex,
    /// Warm incremental estimator, lazily created by the first
    /// [`steady_state_incremental`](Self::steady_state_incremental) call.
    /// Its insertion order always mirrors `running` — the bit-identity
    /// contract with from-scratch [`estimate`] depends on it.
    tracker: Option<IncrementalEstimator>,
    /// Arena for the per-epoch running-jobs view handed to the placer,
    /// reused across epochs (placements are cloned into it; the epoch
    /// loop itself allocates no fresh vector).
    running_view: Vec<RunningJob>,
}

impl fmt::Debug for JobManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobManager")
            .field("placer", &self.placer.name())
            .field("pending", &self.pending.len())
            .field("running", &self.running.len())
            .field("free_gpus", &self.cluster.free_gpus())
            .finish()
    }
}

impl JobManager {
    /// Create a manager over a cluster with the given placement strategy.
    pub fn new(cluster: Cluster, placer: Box<dyn Placer>, config: ManagerConfig) -> Self {
        JobManager {
            cluster,
            placer,
            config,
            pending: Vec::new(),
            running: Vec::new(),
            index: AdmissionIndex::default(),
            tracker: None,
            running_view: Vec::new(),
        }
    }

    /// Submit a job to the pending queue (Fig. 4, step 1).
    pub fn submit(&mut self, job: Job) {
        self.pending.push(job);
    }

    /// The scheduling period in seconds.
    pub fn epoch_s(&self) -> f64 {
        self.config.epoch_s
    }

    /// The placer's display name.
    pub fn placer_name(&self) -> &'static str {
        self.placer.name()
    }

    /// The cluster (GPU ledger reflects running jobs).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Jobs currently running, with their placements.
    pub fn running(&self) -> &[(Job, Placement)] {
        &self.running
    }

    /// Jobs waiting to be placed.
    pub fn pending(&self) -> &[Job] {
        &self.pending
    }

    /// Run one scheduling epoch: batch the pending queue, place it,
    /// enforce the accepted placements on the GPU ledger, and age the
    /// deferred jobs. Returns the decisions made this epoch.
    ///
    /// # Panics
    ///
    /// Panics if the placer proposes a placement that fails validation —
    /// that is a bug in the placer, not a runtime condition.
    pub fn run_epoch(&mut self) -> Vec<(Job, Placement)> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let mut batch = std::mem::take(&mut self.pending);
        // Canonical batch order: value-descending, ties by id. The placers
        // are free to reorder internally, but hand them a submission-order-
        // independent batch so a shuffled submit sequence cannot leak into
        // tie-breaks (the knapsack subset selection is order-sensitive
        // under exact value ties).
        batch.sort_by(|a, b| b.value.total_cmp(&a.value).then(a.id.cmp(&b.id)));
        let mut running_view = std::mem::take(&mut self.running_view);
        running_view.clear();
        running_view.extend(self.running.iter().map(|(j, p)| RunningJob {
            id: j.id,
            gradient_gbits: j.gradient_gbits(),
            placement: p.clone(),
        }));
        let outcome = self
            .placer
            .place_batch(&self.cluster, &running_view, &batch);
        self.running_view = running_view;
        for (job, placement) in &outcome.placed {
            placement
                .validate(&self.cluster, job.gpus)
                .unwrap_or_else(|e| {
                    // netpack-lint: allow(E1): documented `# Panics` contract — a placer returning an invalid placement is a bug in the placer, not a recoverable condition for the epoch loop
                    panic!("placer {} proposed invalid placement: {e}", self.placer.name())
                });
            placement
                .allocate_on(&mut self.cluster)
                // netpack-lint: allow(E1): the line above validated this placement against the same ledger, so the allocation cannot fail
                .expect("validated placement fits the ledger");
            self.index.admit(job.id);
            self.running.push((job.clone(), placement.clone()));
            if let Some(tracker) = &mut self.tracker {
                tracker.stage_push(PlacedJob::new(job.id, &self.cluster, placement));
            }
        }
        for mut job in outcome.deferred {
            job.value += self.config.aging_value_bump;
            self.pending.push(job);
        }
        outcome.placed
    }

    /// Mark a running job finished, releasing its GPUs, and return the
    /// removed `(Job, Placement)` so callers need not keep their own copy.
    ///
    /// Lookup is a binary search over admission numbers; the removal
    /// itself is an order-preserving `Vec::remove` (not `swap_remove`)
    /// because the running order doubles as the warm estimator's insertion
    /// order, and bit-identity with from-scratch [`estimate`] depends on
    /// replaying the same float-op sequence. The estimator removal is
    /// staged, not solved, until the next
    /// [`steady_state_incremental`](Self::steady_state_incremental).
    ///
    /// # Errors
    ///
    /// [`ManagerError::UnknownJob`] if the job is not running;
    /// [`ManagerError::Ledger`] if the ledger refuses the release (the
    /// manager's books were already inconsistent). All-or-nothing: on
    /// error the ledger is unchanged and the job is still running.
    pub fn finish(&mut self, id: JobId) -> Result<(Job, Placement), ManagerError> {
        let idx = self.index.position(id).ok_or(ManagerError::UnknownJob(id))?;
        self.running[idx].1.release_on(&mut self.cluster)?;
        self.index.retire(id, idx);
        if let Some(tracker) = &mut self.tracker {
            let staged = tracker.stage_remove_at(idx, id);
            debug_assert!(staged, "running set and estimator order diverged at {idx}");
        }
        Ok(self.running.remove(idx))
    }

    /// Estimate the current steady state of all running jobs from scratch.
    pub fn steady_state(&self) -> SteadyState {
        let placed: Vec<PlacedJob> = self
            .running
            .iter()
            .map(|(j, p)| PlacedJob::new(j.id, &self.cluster, p))
            .collect();
        estimate(&self.cluster, &placed)
    }

    /// Steady state of all running jobs from the warm incremental
    /// estimator — bit-identical to [`steady_state`](Self::steady_state)
    /// but re-solving only the resource-connected components touched since
    /// the last call.
    ///
    /// The first call builds the tracker from the current running set;
    /// later calls settle the pushes and removals that
    /// [`run_epoch`](Self::run_epoch) and [`finish`](Self::finish) staged —
    /// one solve per dirty component, however many ops hit it — so the
    /// water-filling cost lands entirely inside this method (convenient
    /// for phase timing).
    pub fn steady_state_incremental(&mut self) -> &SteadyState {
        match self.tracker {
            None => {
                let placed: Vec<PlacedJob> = self
                    .running
                    .iter()
                    .map(|(j, p)| PlacedJob::new(j.id, &self.cluster, p))
                    .collect();
                self.tracker
                    .insert(IncrementalEstimator::new(&self.cluster, &placed))
                    .state()
            }
            Some(ref mut tracker) => {
                tracker.settle(&self.cluster);
                tracker.state()
            }
        }
    }

    /// The warm estimator's current state, if
    /// [`steady_state_incremental`](Self::steady_state_incremental) has
    /// run and nothing has been staged since. Borrows `self` immutably so
    /// callers can read the state alongside [`cluster`](Self::cluster).
    pub fn incremental_state(&self) -> Option<&SteadyState> {
        let tracker = self.tracker.as_ref()?;
        tracker.is_settled().then(|| tracker.state())
    }

    /// Work counters from the warm estimator, if it exists.
    pub fn waterfill_stats(&self) -> Option<WaterfillStats> {
        self.tracker.as_ref().map(|t| *t.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_placement::{GpuBalance, NetPackPlacer};
    use netpack_topology::ClusterSpec;
    use netpack_workload::ModelKind;

    fn manager(placer: Box<dyn Placer>) -> JobManager {
        let cluster = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 4,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        });
        JobManager::new(cluster, placer, ManagerConfig::default())
    }

    fn job(id: u64, gpus: usize) -> Job {
        Job::builder(JobId(id), ModelKind::Vgg16, gpus).build()
    }

    #[test]
    fn epoch_places_and_allocates() {
        let mut m = manager(Box::new(NetPackPlacer::default()));
        m.submit(job(0, 4));
        m.submit(job(1, 8));
        let placed = m.run_epoch();
        assert_eq!(placed.len(), 2);
        assert_eq!(m.cluster().free_gpus(), 4);
        assert!(m.pending().is_empty());
    }

    #[test]
    fn finish_releases_gpus() {
        let mut m = manager(Box::new(GpuBalance));
        m.submit(job(0, 4));
        m.run_epoch();
        assert_eq!(m.cluster().free_gpus(), 12);
        m.finish(JobId(0)).unwrap();
        assert_eq!(m.cluster().free_gpus(), 16);
        assert_eq!(m.finish(JobId(0)), Err(ManagerError::UnknownJob(JobId(0))));
    }

    #[test]
    fn deferred_jobs_age_and_retry() {
        let mut m = manager(Box::new(NetPackPlacer::default()));
        // Fill the cluster, then submit one more job than fits.
        m.submit(job(0, 16));
        m.run_epoch();
        m.submit(job(1, 4));
        let placed = m.run_epoch();
        assert!(placed.is_empty());
        assert_eq!(m.pending().len(), 1);
        let aged = m.pending()[0].value;
        assert!(aged > 1.0, "value should age, got {aged}");
        // Finishing the hog frees capacity; the aged job lands next epoch.
        m.finish(JobId(0)).unwrap();
        let placed = m.run_epoch();
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].0.id, JobId(1));
    }

    #[test]
    fn empty_epoch_is_a_noop() {
        let mut m = manager(Box::new(GpuBalance));
        assert!(m.run_epoch().is_empty());
    }

    #[test]
    fn steady_state_reflects_running_jobs() {
        let mut m = manager(Box::new(GpuBalance));
        m.submit(job(0, 6));
        m.run_epoch();
        let state = m.steady_state();
        let rate = state.job_rate_gbps(JobId(0)).unwrap();
        assert!(rate.is_finite() && rate > 0.0);
    }

    #[test]
    fn finish_returns_the_removed_job_and_placement() {
        let mut m = manager(Box::new(GpuBalance));
        m.submit(job(3, 6));
        let placed = m.run_epoch();
        let (fj, fp) = m.finish(JobId(3)).unwrap();
        assert_eq!(fj.id, JobId(3));
        assert_eq!((fj, fp), placed.into_iter().next().unwrap());
    }

    #[test]
    fn finish_out_of_order_keeps_lookup_consistent() {
        let mut m = manager(Box::new(GpuBalance));
        for id in 0..4 {
            m.submit(job(id, 2));
        }
        m.run_epoch();
        // Remove from the middle, then the ends — every lookup must
        // still resolve after the index fix-ups.
        for id in [1u64, 3, 0, 2] {
            let (fj, _) = m.finish(JobId(id)).unwrap();
            assert_eq!(fj.id, JobId(id));
        }
        assert_eq!(m.cluster().free_gpus(), 16);
        assert!(m.running().is_empty());
    }

    #[test]
    fn incremental_steady_state_matches_scratch_across_churn() {
        let mut m = manager(Box::new(NetPackPlacer::default()));
        m.submit(job(0, 6));
        m.submit(job(1, 4));
        m.run_epoch();
        // First call builds the tracker; compare bitwise against scratch.
        let scratch = m.steady_state();
        let inc = m.steady_state_incremental().clone();
        assert_eq!(inc.job_rate_gbps(JobId(0)), scratch.job_rate_gbps(JobId(0)));
        assert_eq!(inc.job_rate_gbps(JobId(1)), scratch.job_rate_gbps(JobId(1)));
        // Churn: finish one, admit another, and re-check.
        m.finish(JobId(0)).unwrap();
        m.submit(job(2, 6));
        m.run_epoch();
        assert!(m.incremental_state().is_none(), "ops staged → no stale view");
        let scratch = m.steady_state();
        let inc = m.steady_state_incremental().clone();
        for id in [1u64, 2] {
            assert_eq!(inc.job_rate_gbps(JobId(id)), scratch.job_rate_gbps(JobId(id)));
        }
        assert!(m.incremental_state().is_some());
        let stats = m.waterfill_stats().unwrap();
        assert_eq!(stats.removes, 1);
        assert!(stats.pushes >= 1);
    }

    #[test]
    fn incremental_state_is_withheld_while_ops_are_staged() {
        let mut m = manager(Box::new(NetPackPlacer::default()));
        m.submit(job(0, 6));
        m.submit(job(1, 4));
        m.run_epoch();
        assert!(m.incremental_state().is_none(), "no tracker yet");
        m.steady_state_incremental();
        assert!(m.incremental_state().is_some());
        // A finish stages its removal: no stale view until the settle.
        m.finish(JobId(0)).unwrap();
        assert!(m.incremental_state().is_none());
        let settled = m.steady_state_incremental().clone();
        assert_eq!(settled.first_difference(&m.steady_state()), None);
        assert_eq!(m.incremental_state(), Some(&settled));
        // So does an epoch's placement; both land in one settle.
        m.submit(job(2, 6));
        m.run_epoch();
        m.finish(JobId(1)).unwrap();
        assert!(m.incremental_state().is_none());
        let settled = m.steady_state_incremental().clone();
        assert_eq!(settled.first_difference(&m.steady_state()), None);
        let stats = m.waterfill_stats().unwrap();
        assert_eq!((stats.staged, stats.settles), (3, 2));
    }

    #[test]
    fn refused_finish_changes_nothing() {
        let mut m = manager(Box::new(NetPackPlacer::default()));
        m.submit(job(0, 6));
        m.run_epoch();
        m.steady_state_incremental();
        let placement = m.running()[0].1.clone();
        assert!(placement.workers().len() >= 2, "a spanning job");

        // The ledger refuses the *last* worker's release: the workers
        // before it must not stay released, and the job keeps running on
        // every book — running set, index, warm estimator.
        let &(last, w) = placement.workers().last().unwrap();
        m.cluster.release_gpus(last, w).unwrap();
        let err = m.finish(JobId(0)).unwrap_err();
        assert!(matches!(err, ManagerError::Ledger(TopologyError::ReleaseOverflow { .. })));
        assert_eq!(m.cluster().free_gpus(), 16 - 6 + w);
        assert_eq!(m.running().len(), 1);
        assert!(m.incremental_state().is_some(), "nothing was staged");
        assert!(m.steady_state_incremental().job_rate_gbps(JobId(0)).is_some());
        m.cluster.allocate_gpus(last, w).unwrap();

        // Books back in step: the finish now goes through, once.
        m.finish(JobId(0)).unwrap();
        assert_eq!(m.cluster().free_gpus(), 16);
        assert_eq!(m.finish(JobId(0)), Err(ManagerError::UnknownJob(JobId(0))));
    }

    #[test]
    fn epoch_batch_order_is_submission_order_independent() {
        // Equal-value jobs are the tie-break stress case: without the
        // canonical batch sort, knapsack subset selection could pick a
        // different subset per submission order.
        let sizes = [4usize, 2, 8, 2, 4, 8];
        let run = |order: &[usize]| {
            let mut m = manager(Box::new(NetPackPlacer::default()));
            for &i in order {
                m.submit(job(i as u64, sizes[i]));
            }
            let mut placed = m.run_epoch();
            placed.sort_by_key(|(j, _)| j.id);
            placed
        };
        let reference = run(&[0, 1, 2, 3, 4, 5]);
        for order in [[5usize, 4, 3, 2, 1, 0], [2, 5, 0, 3, 1, 4]] {
            assert_eq!(run(&order), reference, "order {order:?}");
        }
    }

    #[test]
    fn finish_of_an_unknown_id_reports_and_mutates_nothing() {
        let mut m = manager(Box::new(GpuBalance));
        m.submit(job(0, 4));
        m.run_epoch();
        assert_eq!(m.finish(JobId(99)), Err(ManagerError::UnknownJob(JobId(99))));
        // A pending (never placed) job is not "running" either.
        m.submit(job(7, 2));
        assert_eq!(m.finish(JobId(7)), Err(ManagerError::UnknownJob(JobId(7))));
        assert_eq!(m.cluster().free_gpus(), 12, "ledger untouched");
        assert_eq!(m.running().len(), 1);
        assert_eq!(m.pending().len(), 1);
    }

    #[test]
    fn double_finish_fails_cleanly_and_keeps_the_index_consistent() {
        let mut m = manager(Box::new(GpuBalance));
        for id in 0..3 {
            m.submit(job(id, 2));
        }
        m.run_epoch();
        m.finish(JobId(1)).unwrap();
        assert_eq!(m.finish(JobId(1)), Err(ManagerError::UnknownJob(JobId(1))));
        // The failed second finish must not have disturbed the index
        // fix-ups: the remaining jobs still resolve.
        for id in [0u64, 2] {
            let (fj, _) = m.finish(JobId(id)).unwrap();
            assert_eq!(fj.id, JobId(id));
        }
        assert_eq!(m.cluster().free_gpus(), 16);
    }

    #[test]
    fn debug_format_is_informative() {
        let m = manager(Box::new(GpuBalance));
        let s = format!("{m:?}");
        assert!(s.contains("GB"));
        assert!(s.contains("free_gpus"));
    }
}
