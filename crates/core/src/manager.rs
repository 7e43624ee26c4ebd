//! Job-manager implementation.
//!
//! The manager owns the pending queue and the scheduling policy around it
//! (canonical batch order, aging of deferred jobs). The *books* — the GPU
//! ledger, the running set and the water-filled steady state over them —
//! hold one [`RunningJob`] per running job and are kept in one of two
//! ways, chosen when the manager is built and hidden behind the private
//! [`Books`] trait:
//!
//! * **Stateless books** ([`JobManager::new`]): the manager keeps them
//!   itself — a [`Cluster`] whose free-GPU counts are the ledger, the
//!   running set, and, once a caller has asked for it, a warm
//!   [`IncrementalEstimator`] mirroring that set in placement order — and
//!   hands the placer the running set every epoch, from which a stateless
//!   [`Placer::place_batch`] rebuilds whatever it needs. Every baseline
//!   placer runs this way, and so does every oracle: the simulator's
//!   from-scratch reference and the service-equivalence reference share
//!   neither session nor estimator with what they check.
//! * **Warm books** ([`JobManager::warm`] over a placer that
//!   [opens a session](Placer::open_session)): the books are the
//!   [`NetPackSession`] itself. An epoch is `session.place_batch`, a
//!   finish is `session.complete`, the steady state is the session's own
//!   estimator, settled; nothing is kept beside the session and nothing is
//!   rebuilt per epoch. The placements are bit-identical to the stateless
//!   books' (this module's tests, `service_equivalence` and the
//!   simulator's `run == run_reference` tests hold the two to each other).
//!
//! Either way the running set changes in [`JobManager::run_epoch`] and
//! [`JobManager::finish`] and the steady state is read in
//! [`JobManager::steady_state_incremental`]. A finish only *stages* its
//! estimator removal (bookkeeping, no solve), and so does an epoch of the
//! stateless books; the read settles, so completions between two reads
//! cost one solve per component they touched. A warm epoch returns
//! settled: the session scores each job against the state the previous
//! push left, so its pushes are eager.
//! [`JobManager::rates_changed_since`] then names the jobs those settles
//! re-solved, so a reader that caches per-job rates (the flow simulator)
//! revisits only those.

use netpack_model::Placement;
use netpack_placement::{
    placement_order, AdmissionIndex, BatchOutcome, NetPackSession, PerfCounters, Placer,
    RunningJob, SessionError, DEFERRAL_AGING,
};
use netpack_topology::{Cluster, JobId};
use netpack_waterfill::{IncrementalEstimator, PlacedJob, SteadyState, WaterfillStats};
use netpack_workload::Job;
use std::fmt;

/// The GPU ledger, the running set and the steady state over it: what a
/// manager keeps about the jobs it has placed. The two implementations
/// are described in the [module docs](self); the manager picks one when
/// it is built and never asks which.
trait Books {
    /// Topology and capacities. Only the stateless books keep their ledger
    /// in it; [`free_gpus`](Self::free_gpus) reads either kind's.
    fn cluster(&self) -> &Cluster;

    fn free_gpus(&self) -> usize;

    /// The running set in placement order — the estimator's insertion
    /// order.
    fn running(&self) -> &[RunningJob];

    /// Place `batch` (already in canonical order) and enforce what was
    /// placed on the ledger, the running set and the estimator.
    fn place(&mut self, batch: &[Job]) -> BatchOutcome;

    /// Release `id`'s GPUs, drop it from the running set and stage its
    /// estimator removal, all or nothing.
    fn finish(&mut self, id: JobId) -> Result<RunningJob, SessionError>;

    /// Settle the staged ops and return the warm steady state.
    fn settled_state(&mut self) -> &SteadyState;

    fn waterfill_stats(&self) -> Option<WaterfillStats>;

    /// Refill `out` with the jobs re-solved after the settle numbered
    /// `seen` and return the number of the last one.
    fn changed_since(&self, seen: u64, out: &mut Vec<JobId>) -> u64;

    /// The perf counters of the placement engine the books keep, if they
    /// keep one: a warm session's.
    fn perf(&self) -> Option<&PerfCounters>;
}

/// Books the manager keeps itself, around a stateless placer.
struct StatelessBooks {
    /// The ledger: free-GPU counts reflect the running jobs.
    cluster: Cluster,
    placer: Box<dyn Placer>,
    /// Handed to the placer as is every epoch.
    running: Vec<RunningJob>,
    /// Id → position in `running` for `finish`.
    index: AdmissionIndex,
    /// Warm incremental estimator, lazily created by the first settle.
    /// Its insertion order always mirrors `running` — the bit-identity
    /// contract with a from-scratch solve depends on it.
    tracker: Option<IncrementalEstimator>,
}

impl StatelessBooks {
    fn new(cluster: Cluster, placer: Box<dyn Placer>) -> Self {
        StatelessBooks {
            cluster,
            placer,
            running: Vec::new(),
            index: AdmissionIndex::default(),
            tracker: None,
        }
    }
}

impl Books for StatelessBooks {
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn free_gpus(&self) -> usize {
        self.cluster.free_gpus()
    }

    fn running(&self) -> &[RunningJob] {
        &self.running
    }

    fn place(&mut self, batch: &[Job]) -> BatchOutcome {
        let outcome = self.placer.place_batch(&self.cluster, &self.running, batch);
        for (job, placement) in &outcome.placed {
            placement
                .validate(&self.cluster, job.gpus)
                .unwrap_or_else(|e| {
                    // netpack-lint: allow(E1): documented `# Panics` contract — a placer returning an invalid placement is a bug in the placer, not a recoverable condition for the epoch loop
                    panic!(
                        "placer {} proposed invalid placement: {e}",
                        self.placer.name()
                    )
                });
            placement
                .allocate_on(&mut self.cluster)
                // netpack-lint: allow(E1): the line above validated this placement against the same ledger, so the allocation cannot fail
                .expect("validated placement fits the ledger");
            self.index.admit(job.id);
            self.running.push(RunningJob {
                id: job.id,
                gradient_gbits: job.gradient_gbits(),
                placement: placement.clone(),
            });
            if let Some(tracker) = &mut self.tracker {
                tracker.stage_push(PlacedJob::new(job.id, &self.cluster, placement));
            }
        }
        outcome
    }

    /// Lookup is a binary search over admission numbers; the removal
    /// itself is an order-preserving `Vec::remove` (not `swap_remove`)
    /// because the running order doubles as the warm estimator's insertion
    /// order, and bit-identity with a from-scratch solve depends on
    /// replaying the same float-op sequence.
    fn finish(&mut self, id: JobId) -> Result<RunningJob, SessionError> {
        let idx = self
            .index
            .position(id)
            .ok_or(SessionError::UnknownJob(id))?;
        self.running[idx]
            .placement
            .release_on(&mut self.cluster)
            .map_err(SessionError::Ledger)?;
        self.index.retire(id, idx);
        if let Some(tracker) = &mut self.tracker {
            let staged = tracker.stage_remove_at(idx, id);
            debug_assert!(staged, "running set and estimator order diverged at {idx}");
        }
        Ok(self.running.remove(idx))
    }

    fn settled_state(&mut self) -> &SteadyState {
        match self.tracker {
            None => {
                let placed: Vec<PlacedJob> = self
                    .running
                    .iter()
                    .map(|r| r.to_placed(&self.cluster))
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

    fn waterfill_stats(&self) -> Option<WaterfillStats> {
        self.tracker.as_ref().map(|t| *t.stats())
    }

    fn changed_since(&self, seen: u64, out: &mut Vec<JobId>) -> u64 {
        out.clear();
        self.tracker.as_ref().map_or(0, |tracker| {
            out.extend(tracker.changed_since(seen));
            tracker.solve_epoch()
        })
    }

    /// A stateless placer keeps its own counters.
    fn perf(&self) -> Option<&PerfCounters> {
        None
    }
}

/// The warm books: the session is the ledger, the running set and the
/// estimator, and the one record of each running job.
impl Books for NetPackSession {
    fn cluster(&self) -> &Cluster {
        NetPackSession::cluster(self)
    }

    fn free_gpus(&self) -> usize {
        NetPackSession::free_gpus(self)
    }

    fn running(&self) -> &[RunningJob] {
        NetPackSession::running(self)
    }

    fn place(&mut self, batch: &[Job]) -> BatchOutcome {
        self.place_batch(batch)
    }

    fn finish(&mut self, id: JobId) -> Result<RunningJob, SessionError> {
        self.complete(id)
    }

    fn settled_state(&mut self) -> &SteadyState {
        self.settle();
        self.state()
    }

    fn waterfill_stats(&self) -> Option<WaterfillStats> {
        Some(*NetPackSession::waterfill_stats(self))
    }

    fn changed_since(&self, seen: u64, out: &mut Vec<JobId>) -> u64 {
        out.clear();
        out.extend(self.rates_changed_since(seen));
        self.solve_epoch()
    }

    fn perf(&self) -> Option<&PerfCounters> {
        Some(NetPackSession::perf(self))
    }
}

/// The cluster-wide DT job manager (Fig. 4).
pub struct JobManager {
    books: Box<dyn Books>,
    placer_name: &'static str,
    pending: Vec<Job>,
}

impl fmt::Debug for JobManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobManager")
            .field("placer", &self.placer_name)
            .field("pending", &self.pending.len())
            .field("running", &self.books.running().len())
            .field("free_gpus", &self.books.free_gpus())
            .finish()
    }
}

impl JobManager {
    /// Create a manager over a cluster with the given placement strategy,
    /// keeping stateless books: the placer is handed the running set every
    /// epoch and keeps nothing between calls.
    pub fn new(cluster: Cluster, placer: Box<dyn Placer>) -> Self {
        JobManager {
            placer_name: placer.name(),
            books: Box::new(StatelessBooks::new(cluster, placer)),
            pending: Vec::new(),
        }
    }

    /// Create a manager whose books are the warm session `placer`
    /// [opens](Placer::open_session) over `cluster` (taken as idle) — same
    /// decisions as [`new`](Self::new), nothing rebuilt per epoch. A placer
    /// with no warm form gets the stateless books of [`new`](Self::new).
    pub fn warm(cluster: Cluster, placer: Box<dyn Placer>) -> Self {
        match placer.open_session(&cluster) {
            Some(session) => JobManager {
                placer_name: placer.name(),
                books: Box::new(session),
                pending: Vec::new(),
            },
            None => JobManager::new(cluster, placer),
        }
    }

    /// Submit a job to the pending queue (Fig. 4, step 1).
    pub fn submit(&mut self, job: Job) {
        self.pending.push(job);
    }

    /// The cluster's topology and capacities. Under stateless books its
    /// free-GPU counts are the ledger; a warm manager's ledger is its
    /// session's and this cluster stays as it was handed in —
    /// [`free_gpus`](Self::free_gpus) reads either.
    pub fn cluster(&self) -> &Cluster {
        self.books.cluster()
    }

    /// GPUs no running job holds.
    pub fn free_gpus(&self) -> usize {
        self.books.free_gpus()
    }

    /// Jobs currently running with their placements, in placement order.
    pub fn running(&self) -> &[RunningJob] {
        self.books.running()
    }

    /// Jobs waiting to be placed.
    pub fn pending(&self) -> &[Job] {
        &self.pending
    }

    /// Run one scheduling epoch: batch the pending queue, place it,
    /// enforce the accepted placements on the GPU ledger, and age the
    /// deferred jobs by [`DEFERRAL_AGING`]. Returns the decisions made this
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if a stateless placer proposes a placement that fails
    /// validation — that is a bug in the placer, not a runtime condition.
    pub fn run_epoch(&mut self) -> Vec<(Job, Placement)> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let mut batch = std::mem::take(&mut self.pending);
        // The placers are free to reorder internally, but hand them a
        // submission-order-independent batch.
        batch.sort_by(placement_order);
        let outcome = self.books.place(&batch);
        for mut job in outcome.deferred {
            job.value += DEFERRAL_AGING;
            self.pending.push(job);
        }
        outcome.placed
    }

    /// Mark a running job finished, releasing its GPUs, and return its
    /// removed record. The running order of the other jobs is preserved,
    /// and the estimator removal is staged, not solved, until the next
    /// [`steady_state_incremental`](Self::steady_state_incremental).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownJob`] if the job is not running;
    /// [`SessionError::Ledger`] if the ledger refuses the release (the
    /// manager's books were already inconsistent). All-or-nothing: on
    /// error the ledger is unchanged and the job is still running.
    pub fn finish(&mut self, id: JobId) -> Result<RunningJob, SessionError> {
        self.books.finish(id)
    }

    /// Steady state of all running jobs from the warm incremental
    /// estimator — bit-identical to a from-scratch solve over
    /// [`running`](Self::running) but re-solving only the
    /// resource-connected components touched since the last call.
    ///
    /// Stateless books build their estimator from the current running set
    /// at the first call; after that, and always under warm books, the
    /// call settles what [`run_epoch`](Self::run_epoch) and
    /// [`finish`](Self::finish) staged — one solve per dirty component,
    /// however many ops hit it.
    pub fn steady_state_incremental(&mut self) -> &SteadyState {
        self.books.settled_state()
    }

    /// Refill `changed` with the running jobs whose rate in the warm
    /// steady state was written after the settle numbered `seen` — new
    /// jobs and every member of a re-solved component, see
    /// [`IncrementalEstimator::changed_since`] — and return the number of
    /// the last settle, the next call's `seen`. Start at 0; call it right
    /// after [`steady_state_incremental`](Self::steady_state_incremental).
    /// Every running job not listed kept its rate bit for bit.
    pub fn rates_changed_since(&self, seen: u64, changed: &mut Vec<JobId>) -> u64 {
        self.books.changed_since(seen, changed)
    }

    /// Work counters from the warm estimator, if it exists.
    pub fn waterfill_stats(&self) -> Option<WaterfillStats> {
        self.books.waterfill_stats()
    }

    /// The perf counters of the warm session that is this manager's books
    /// — the placement layer's phases and counters, as
    /// [`NetPackSession::perf`] names them. `None` under stateless books:
    /// the placer handed to [`new`](Self::new) keeps its own.
    pub fn session_perf(&self) -> Option<&PerfCounters> {
        self.books.perf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_placement::{GpuBalance, NetPackPlacer};
    use netpack_topology::{ClusterSpec, TopologyError};
    use netpack_waterfill::estimate;
    use netpack_workload::ModelKind;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 4,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        })
    }

    /// A manager with stateless books.
    fn manager(placer: Box<dyn Placer>) -> JobManager {
        JobManager::new(cluster(), placer)
    }

    /// NetPack under both kinds of books, stateless first.
    fn both_books() -> [JobManager; 2] {
        let netpack = || Box::new(NetPackPlacer::default());
        [manager(netpack()), JobManager::warm(cluster(), netpack())]
    }

    fn job(id: u64, gpus: usize) -> Job {
        Job::builder(JobId(id), ModelKind::Vgg16, gpus).build()
    }

    /// Algorithm 1 from scratch over the running set in placement order.
    fn scratch(m: &JobManager) -> SteadyState {
        let placed: Vec<PlacedJob> = m
            .running()
            .iter()
            .map(|r| r.to_placed(m.cluster()))
            .collect();
        estimate(m.cluster(), &placed)
    }

    #[test]
    fn epoch_places_and_allocates() {
        for mut m in both_books() {
            m.submit(job(0, 4));
            m.submit(job(1, 8));
            let placed = m.run_epoch();
            assert_eq!(placed.len(), 2);
            assert_eq!(m.free_gpus(), 4);
            assert!(m.pending().is_empty());
        }
    }

    #[test]
    fn warm_is_stateless_for_a_placer_without_a_session() {
        let mut m = JobManager::warm(cluster(), Box::new(GpuBalance));
        m.submit(job(0, 4));
        m.run_epoch();
        // The ledger is the manager's own cluster, as under `new`.
        assert_eq!(m.cluster().free_gpus(), 12);
        assert!(
            m.waterfill_stats().is_none(),
            "no estimator until asked for"
        );
    }

    #[test]
    fn finish_releases_gpus() {
        for mut m in both_books() {
            m.submit(job(0, 4));
            m.run_epoch();
            assert_eq!(m.free_gpus(), 12);
            m.finish(JobId(0)).unwrap();
            assert_eq!(m.free_gpus(), 16);
            assert_eq!(m.finish(JobId(0)), Err(SessionError::UnknownJob(JobId(0))));
        }
    }

    #[test]
    fn deferred_jobs_age_and_retry() {
        for mut m in both_books() {
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
    }

    #[test]
    fn empty_epoch_is_a_noop() {
        let mut m = manager(Box::new(GpuBalance));
        assert!(m.run_epoch().is_empty());
    }

    #[test]
    fn finish_returns_the_running_record() {
        for mut m in both_books() {
            m.submit(job(3, 6));
            let placed = m.run_epoch();
            let record = m.running()[0].clone();
            let done = m.finish(JobId(3)).unwrap();
            assert_eq!(done, record);
            assert_eq!(done.id, JobId(3));
            assert_eq!(done.gradient_gbits, job(3, 6).gradient_gbits());
            assert_eq!(done.placement, placed[0].1);
        }
    }

    #[test]
    fn finish_out_of_order_keeps_lookup_consistent() {
        for mut m in both_books() {
            for id in 0..4 {
                m.submit(job(id, 2));
            }
            m.run_epoch();
            // Remove from the middle, then the ends — every lookup must
            // still resolve after the index fix-ups.
            for id in [1u64, 3, 0, 2] {
                assert_eq!(m.finish(JobId(id)).unwrap().id, JobId(id));
            }
            assert_eq!(m.free_gpus(), 16);
            assert!(m.running().is_empty());
        }
    }

    /// Finish one job, admit another, and hold the warm state to the
    /// from-scratch one, bit for bit, after each.
    fn churn(m: &mut JobManager) {
        m.submit(job(0, 6));
        m.submit(job(1, 4));
        m.run_epoch();
        let scratch = scratch(m);
        assert_eq!(
            m.steady_state_incremental().first_difference(&scratch),
            None
        );
        m.finish(JobId(0)).unwrap();
        m.submit(job(2, 6));
        m.run_epoch();
    }

    #[test]
    fn incremental_steady_state_matches_scratch_across_churn() {
        let mut m = manager(Box::new(NetPackPlacer::default()));
        churn(&mut m);
        let scratch = scratch(&m);
        assert_eq!(
            m.steady_state_incremental().first_difference(&scratch),
            None
        );
        // The estimator was built over jobs 0 and 1: it saw job 2 only,
        // and the finish and the epoch staged between two reads landed in
        // one settle.
        let stats = m.waterfill_stats().unwrap();
        assert_eq!((stats.removes, stats.pushes), (1, 1));
        assert_eq!((stats.staged, stats.settles), (2, 1));
    }

    #[test]
    fn warm_steady_state_matches_scratch_across_churn() {
        let mut m = JobManager::warm(cluster(), Box::new(NetPackPlacer::default()));
        churn(&mut m);
        // The session settled the finish before it placed job 2, and the
        // epoch returned settled: reading the state solves nothing.
        let settles = m.waterfill_stats().unwrap().settles;
        let settled = m.steady_state_incremental().clone();
        assert_eq!(m.waterfill_stats().unwrap().settles, settles);
        assert_eq!(settled.first_difference(&scratch(&m)), None);
        // One estimator for placement and steady state: it saw all three
        // pushes and the finish (and re-pushed whatever INA step 4 popped).
        let stats = m.waterfill_stats().unwrap();
        assert!(stats.pushes >= 3);
        assert_eq!(stats.pushes - stats.removes, 2);
    }

    #[test]
    fn warm_state_is_settled_by_an_epoch_and_staged_by_a_finish() {
        let mut m = JobManager::warm(cluster(), Box::new(NetPackPlacer::default()));
        // A read solves only what is staged: count the settles it takes.
        let settles_to_read = |m: &mut JobManager| {
            let before = m.waterfill_stats().unwrap().settles;
            let state = m.steady_state_incremental().clone();
            (m.waterfill_stats().unwrap().settles - before, state)
        };
        assert_eq!(settles_to_read(&mut m).0, 0, "an idle session is settled");
        m.submit(job(0, 6));
        m.submit(job(1, 4));
        m.run_epoch();
        let (settles, after_epoch) = settles_to_read(&mut m);
        assert_eq!(settles, 0, "an epoch returns settled");
        assert_eq!(after_epoch.first_difference(&scratch(&m)), None);
        // A finish stages its removal; the read settles it.
        m.finish(JobId(0)).unwrap();
        let (settles, settled) = settles_to_read(&mut m);
        assert_eq!(settles, 1);
        assert_eq!(settled.first_difference(&scratch(&m)), None);
        // The next epoch absorbs a finish staged before it.
        m.finish(JobId(1)).unwrap();
        m.submit(job(2, 6));
        m.run_epoch();
        let (settles, settled) = settles_to_read(&mut m);
        assert_eq!(settles, 0, "an epoch returns settled");
        assert_eq!(settled.first_difference(&scratch(&m)), None);
        assert_eq!(
            m.running().iter().map(|r| r.id).collect::<Vec<_>>(),
            [JobId(2)]
        );
    }

    #[test]
    fn rates_changed_since_names_what_a_reader_must_revisit() {
        for mut m in both_books() {
            let mut changed = vec![JobId(99)];
            m.steady_state_incremental();
            let seen = m.rates_changed_since(0, &mut changed);
            assert!(changed.is_empty(), "nothing runs yet");
            // Two spanning jobs on four servers share a link; a local job
            // touches nothing.
            for (id, gpus) in [(0, 6), (1, 6), (2, 2)] {
                m.submit(job(id, gpus));
            }
            m.run_epoch();
            m.steady_state_incremental();
            let seen = m.rates_changed_since(seen, &mut changed);
            changed.sort_unstable();
            assert_eq!(changed, [JobId(0), JobId(1), JobId(2)]);
            assert_eq!(m.rates_changed_since(seen, &mut changed), seen);
            assert!(changed.is_empty(), "nothing moved since");
            // The local job's completion re-solves nobody.
            m.finish(JobId(2)).unwrap();
            m.steady_state_incremental();
            let seen = m.rates_changed_since(seen, &mut changed);
            assert!(changed.is_empty());
            // A spanning job's completion re-solves the one it shared with.
            m.finish(JobId(0)).unwrap();
            m.steady_state_incremental();
            m.rates_changed_since(seen, &mut changed);
            assert_eq!(changed, [JobId(1)]);
        }
    }

    #[test]
    fn refused_finish_changes_nothing() {
        let mut books = StatelessBooks::new(cluster(), Box::new(NetPackPlacer::default()));
        books.place(&[job(0, 6)]);
        books.settled_state();
        let placement = books.running[0].placement.clone();
        assert!(placement.workers().len() >= 2, "a spanning job");

        // The ledger refuses the *last* worker's release: the workers
        // before it must not stay released, and the job keeps running on
        // every book — running set, index, warm estimator.
        let &(last, w) = placement.workers().last().unwrap();
        books.cluster.release_gpus(last, w).unwrap();
        let err = books.finish(JobId(0)).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Ledger(TopologyError::ReleaseOverflow { .. })
        ));
        assert_eq!(books.free_gpus(), 16 - 6 + w);
        assert_eq!(books.running.len(), 1);
        assert!(
            books.tracker.as_ref().is_some_and(|t| t.is_settled()),
            "nothing was staged"
        );
        assert!(books.settled_state().job_rate_gbps(JobId(0)).is_some());
        books.cluster.allocate_gpus(last, w).unwrap();

        // Books back in step: the finish now goes through, once.
        books.finish(JobId(0)).unwrap();
        assert_eq!(books.free_gpus(), 16);
        assert_eq!(
            books.finish(JobId(0)),
            Err(SessionError::UnknownJob(JobId(0)))
        );
    }

    #[test]
    fn refused_warm_finish_changes_nothing() {
        let mut books = NetPackPlacer::default()
            .open_session(&cluster())
            .expect("NetPack opens a session");
        Books::place(&mut books, &[job(0, 6)]);
        // The session's ledger was credited while the job kept running.
        assert!(books.precredit_flat_ledger(JobId(0)));
        let err = Books::finish(&mut books, JobId(0)).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Ledger(TopologyError::ReleaseOverflow { .. })
        ));
        assert_eq!(Books::running(&books).len(), 1);
        assert!(books.is_settled(), "nothing was staged");
    }

    /// NetPack under the stateless books and under the warm books, driven
    /// by one seeded stream of submits, epochs, steady-state reads and
    /// finishes — of running jobs, and of ids pending, finished or never
    /// seen: after every step both hold the same running set, slice for
    /// slice, and every finish returns the same record or the same error.
    #[test]
    fn stateless_and_warm_books_keep_the_same_running_set() {
        let cluster = || {
            Cluster::new(ClusterSpec {
                racks: 2,
                servers_per_rack: 4,
                gpus_per_server: 4,
                ..ClusterSpec::paper_default()
            })
        };
        let models = [ModelKind::Vgg16, ModelKind::ResNet50, ModelKind::AlexNet];
        let (mut finished, mut refused) = (0, 0);
        for seed in 1..=6u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut below = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let netpack = || Box::new(NetPackPlacer::default());
            let [mut cold, mut warm] = [
                JobManager::new(cluster(), netpack()),
                JobManager::warm(cluster(), netpack()),
            ];
            let mut next_id = 0;
            for step in 0..150 {
                match below(8) {
                    0..=2 => {
                        let model = models[below(3) as usize];
                        let job =
                            Job::builder(JobId(next_id), model, 1 + below(12) as usize).build();
                        next_id += 1;
                        cold.submit(job.clone());
                        warm.submit(job);
                    }
                    3 | 4 => assert_eq!(
                        cold.run_epoch(),
                        warm.run_epoch(),
                        "seed {seed} step {step}"
                    ),
                    5 => assert_eq!(
                        cold.steady_state_incremental()
                            .first_difference(warm.steady_state_incremental()),
                        None,
                        "seed {seed} step {step}"
                    ),
                    6 if !cold.running().is_empty() => {
                        let id = cold.running()[below(cold.running().len() as u64) as usize].id;
                        let done = cold.finish(id);
                        assert_eq!(done, warm.finish(id), "seed {seed} step {step}");
                        assert_eq!(done.map(|r| r.id), Ok(id));
                        finished += 1;
                    }
                    _ => {
                        let id = JobId(below(next_id + 2));
                        let done = cold.finish(id);
                        assert_eq!(done, warm.finish(id), "seed {seed} step {step}");
                        refused += usize::from(done.is_err());
                    }
                }
                assert_eq!(cold.running(), warm.running(), "seed {seed} step {step}");
                assert_eq!(cold.free_gpus(), warm.free_gpus());
                assert_eq!(cold.pending(), warm.pending());
            }
        }
        assert!(
            finished > 50 && refused > 20,
            "{finished} finished, {refused} refused"
        );
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
        for mut m in both_books() {
            m.submit(job(0, 4));
            m.run_epoch();
            assert_eq!(
                m.finish(JobId(99)),
                Err(SessionError::UnknownJob(JobId(99)))
            );
            // A pending (never placed) job is not "running" either.
            m.submit(job(7, 2));
            assert_eq!(m.finish(JobId(7)), Err(SessionError::UnknownJob(JobId(7))));
            assert_eq!(m.free_gpus(), 12, "ledger untouched");
            assert_eq!(m.running().len(), 1);
            assert_eq!(m.pending().len(), 1);
        }
    }

    #[test]
    fn double_finish_fails_cleanly_and_keeps_the_index_consistent() {
        for mut m in both_books() {
            for id in 0..3 {
                m.submit(job(id, 2));
            }
            m.run_epoch();
            m.finish(JobId(1)).unwrap();
            assert_eq!(m.finish(JobId(1)), Err(SessionError::UnknownJob(JobId(1))));
            // The failed second finish must not have disturbed the index
            // fix-ups: the remaining jobs still resolve.
            for id in [0u64, 2] {
                assert_eq!(m.finish(JobId(id)).unwrap().id, JobId(id));
            }
            assert_eq!(m.free_gpus(), 16);
        }
    }

    #[test]
    fn debug_format_is_informative() {
        let m = manager(Box::new(GpuBalance));
        let s = format!("{m:?}");
        assert!(s.contains("GB"));
        assert!(s.contains("free_gpus"));
    }
}
