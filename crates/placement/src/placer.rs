//! The placer abstraction shared by NetPack and every baseline.

use crate::{
    Comb, FlowBalance, GpuBalance, LeastFragmentation, NetPackPlacer, NetPackSession, OptimusLike,
    RandomPlacer, TetrisLike,
};
use netpack_model::Placement;
use netpack_topology::{Cluster, JobId, ServerId};
use netpack_waterfill::{IncrementalEstimator, PlacedJob, SteadyState};
use netpack_workload::Job;
use std::collections::BTreeMap;

/// A job that is currently running in the cluster, as placers see it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningJob {
    /// The job's identifier.
    pub id: JobId,
    /// Per-worker gradient volume per iteration, in gigabits.
    pub gradient_gbits: f64,
    /// Where the job runs.
    pub placement: Placement,
}

impl RunningJob {
    /// Convert to the estimator's input form.
    pub fn to_placed(&self, cluster: &Cluster) -> PlacedJob {
        PlacedJob::new(self.id, cluster, &self.placement)
    }
}

/// Id → position lookup for a running list that grows at the end and
/// shrinks by order-preserving removal — the shape the warm estimator's
/// insertion order forces on [`NetPackSession`](crate::NetPackSession)
/// and on the job manager.
///
/// Positions shift on every removal, so none is stored: each job keeps the
/// sequence number it was admitted under, and because removal preserves
/// order the live sequence numbers stay sorted — a job's position is a
/// binary search away, and retiring it re-indexes nobody.
#[derive(Debug, Clone, Default)]
pub struct AdmissionIndex {
    seq_of: BTreeMap<JobId, u64>,
    /// Sequence numbers of the live jobs, in list order (ascending).
    seqs: Vec<u64>,
    next_seq: u64,
}

impl AdmissionIndex {
    /// Record `id` as appended to the end of the list.
    pub fn admit(&mut self, id: JobId) {
        self.seq_of.insert(id, self.next_seq);
        self.seqs.push(self.next_seq);
        self.next_seq += 1;
    }

    /// Current position of `id` in the list, if it is live.
    pub fn position(&self, id: JobId) -> Option<usize> {
        self.seqs.binary_search(self.seq_of.get(&id)?).ok()
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: JobId) -> bool {
        self.seq_of.contains_key(&id)
    }

    /// Record that `id`, found at [`position`](Self::position) `idx`, was
    /// removed from the list.
    pub fn retire(&mut self, id: JobId, idx: usize) {
        debug_assert_eq!(self.position(id), Some(idx));
        self.seq_of.remove(&id);
        self.seqs.remove(idx);
    }
}

/// The result of placing one batch.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Jobs placed this epoch, with their placements, in placement order.
    pub placed: Vec<(Job, Placement)>,
    /// Jobs that could not (or were chosen not to) be placed this epoch;
    /// the job manager re-queues them with an aged value.
    pub deferred: Vec<Job>,
}

/// A batch job-placement strategy.
///
/// Implementations must not mutate the cluster they are given: they clone
/// it into a scratch ledger to track intra-batch GPU consumption, and the
/// job manager applies the returned placements to the authoritative ledger
/// after validation.
pub trait Placer {
    /// Short display name used in figure rows (e.g. `"NetPack"`, `"GB"`).
    fn name(&self) -> &'static str;

    /// Place a batch of jobs given the cluster's current state and the
    /// already-running jobs.
    fn place_batch(
        &mut self,
        cluster: &Cluster,
        running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome;

    /// A warm session over `cluster` (taken as idle) that places every
    /// batch exactly as [`place_batch`](Self::place_batch) would, for a
    /// caller that wants one set of books kept across batches instead of a
    /// rebuild per call. `None` — the default — for a placer that has no
    /// warm form.
    fn open_session(&self, _cluster: &Cluster) -> Option<NetPackSession> {
        None
    }
}

/// A fresh, default-configured placer for a [`Placer::name`] string — the
/// one name → placer table, shared by the figure binaries and the CLI.
/// Every placer that can take a cluster-scale trace is here; the
/// toy-scale [`ExactPlacer`](crate::ExactPlacer) is built with its budget,
/// not looked up.
pub fn placer_by_name(name: &str) -> Option<Box<dyn Placer>> {
    Some(match name {
        "NetPack" => Box::new(NetPackPlacer::default()),
        "GB" => Box::new(GpuBalance),
        "FB" => Box::new(FlowBalance),
        "LF" => Box::new(LeastFragmentation),
        "Optimus" => Box::new(OptimusLike),
        "Tetris" => Box::new(TetrisLike),
        "Comb" => Box::new(Comb),
        "Random" => Box::new(RandomPlacer::default()),
        _ => return None,
    })
}

/// The MIP objective of Table 3 evaluated under the water-filling model:
/// total per-iteration communication time `Σ_j d^(j) / v^(j)` of the newly
/// placed jobs, with `running` jobs held fixed. Local jobs contribute 0;
/// a zero-rate job contributes `f64::INFINITY`.
///
/// # Example
///
/// ```
/// use netpack_placement::{batch_comm_time_s, NetPackPlacer, Placer};
/// use netpack_topology::{Cluster, ClusterSpec, JobId};
/// use netpack_workload::{Job, ModelKind};
///
/// let cluster = Cluster::new(ClusterSpec::paper_testbed());
/// let job = Job::builder(JobId(0), ModelKind::Vgg16, 4).build();
/// let outcome = NetPackPlacer::default().place_batch(&cluster, &[], &[job]);
/// let obj = batch_comm_time_s(&cluster, &[], &outcome.placed);
/// assert!(obj.is_finite());
/// ```
pub fn batch_comm_time_s(
    cluster: &Cluster,
    running: &[RunningJob],
    placed: &[(Job, Placement)],
) -> f64 {
    let mut all: Vec<PlacedJob> = running.iter().map(|r| r.to_placed(cluster)).collect();
    all.extend(placed.iter().map(|(j, p)| PlacedJob::new(j.id, cluster, p)));
    let state = netpack_waterfill::estimate(cluster, &all);
    placed
        .iter()
        .map(|(j, _)| {
            state
                .comm_time_s(j.id, j.gradient_gbits())
                .unwrap_or(f64::INFINITY)
        })
        .sum()
}

/// The batch loop of every baseline: places each job in arrival order on
/// a scratch ledger, deferring jobs that do not fit.
///
/// Given the `running` jobs, the loop also keeps a warm
/// [`IncrementalEstimator`] over them and over every job placed so far,
/// and hands `place_one` its settled state — the signal FB, Tetris and
/// Comb read; without them `place_one` sees `None` and no water-fill runs.
/// The loop owns a candidate-order arena passed to `place_one` on every
/// call: placers refill (`clear` + `extend`) and sort it in place, so a
/// batch performs one allocation for the order list however many jobs it
/// holds.
pub(crate) fn greedy_batch<F>(
    cluster: &Cluster,
    running: Option<&[RunningJob]>,
    batch: &[Job],
    mut place_one: F,
) -> BatchOutcome
where
    F: FnMut(&Cluster, Option<&SteadyState>, &Job, &mut Vec<ServerId>) -> Option<Placement>,
{
    let mut scratch = cluster.clone();
    let mut tracker = running.map(|running| {
        let active: Vec<PlacedJob> = running.iter().map(|r| r.to_placed(cluster)).collect();
        IncrementalEstimator::new(cluster, &active)
    });
    let mut outcome = BatchOutcome::default();
    let mut order: Vec<ServerId> = Vec::with_capacity(cluster.num_servers());
    for job in batch {
        let state = tracker.as_ref().map(IncrementalEstimator::state);
        match place_one(&scratch, state, job, &mut order) {
            Some(placement) if try_allocate(&mut scratch, &placement) => {
                if let Some(tracker) = &mut tracker {
                    tracker.push(&scratch, PlacedJob::new(job.id, &scratch, &placement));
                }
                outcome.placed.push((job.clone(), placement));
            }
            // No proposal, or an over-committed one: defer. A buggy
            // placer proposal must not panic the library — the manager
            // re-validates and re-queues deferred jobs anyway.
            _ => outcome.deferred.push(job.clone()),
        }
    }
    outcome
}

/// Allocate every worker of `placement` on the scratch ledger, rolling the
/// ledger back and returning `false` when any server lacks the free GPUs.
fn try_allocate(scratch: &mut Cluster, placement: &Placement) -> bool {
    for (i, &(s, w)) in placement.workers().iter().enumerate() {
        if scratch.allocate_gpus(s, w).is_err() {
            for &(s2, w2) in &placement.workers()[..i] {
                // Releasing what this loop just allocated cannot fail.
                let _ = scratch.release_gpus(s2, w2);
            }
            return false;
        }
    }
    true
}

/// Free GPUs on server `s` — the sort key of most baselines; an id the
/// cluster does not know has none.
pub(crate) fn free_on(cluster: &Cluster, s: ServerId) -> usize {
    cluster
        .free_gpus_per_server()
        .get(s.0)
        .map_or(0, |&free| free as usize)
}

/// Shared helper: pick servers from a preference-ordered candidate list
/// until the GPU demand is met, taking as many free GPUs per server as
/// needed. Returns `None` when the cluster lacks free GPUs overall.
pub(crate) fn take_in_order(
    cluster: &Cluster,
    order: &[ServerId],
    gpus: usize,
) -> Option<Vec<(ServerId, usize)>> {
    let mut remaining = gpus;
    let mut chosen = Vec::new();
    for &s in order {
        if remaining == 0 {
            break;
        }
        let free = cluster.server(s)?.gpus_free();
        if free == 0 {
            continue;
        }
        let take = free.min(remaining);
        chosen.push((s, take));
        remaining -= take;
    }
    if remaining == 0 {
        Some(chosen)
    } else {
        None
    }
}

/// Turn an ordered server preference into a placement: fill GPUs in order,
/// put the PS on the first chosen server (colocating makes single-server
/// jobs local, mirroring how the baselines were run in the paper).
pub(crate) fn place_by_order(
    cluster: &Cluster,
    order: &[ServerId],
    job: &Job,
) -> Option<Placement> {
    let workers = take_in_order(cluster, order, job.gpus)?;
    let ps = (workers.len() > 1).then(|| workers[0].0);
    Some(Placement::new(workers, ps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_topology::ClusterSpec;
    use netpack_workload::ModelKind;

    #[test]
    fn admission_index_tracks_positions_through_removals() {
        let mut index = AdmissionIndex::default();
        let mut list: Vec<JobId> = Vec::new();
        // Ids out of order and re-admitted: positions follow the list.
        for id in [7u64, 3, 9, 1, 4] {
            index.admit(JobId(id));
            list.push(JobId(id));
        }
        for id in [9u64, 7, 4] {
            let idx = index.position(JobId(id)).unwrap();
            assert_eq!(list.remove(idx), JobId(id));
            index.retire(JobId(id), idx);
            assert_eq!(index.position(JobId(id)), None);
            assert!(!index.contains(JobId(id)));
            for (i, &live) in list.iter().enumerate() {
                assert_eq!(index.position(live), Some(i));
            }
        }
        index.admit(JobId(9));
        list.push(JobId(9));
        assert_eq!(index.position(JobId(9)), Some(2));
        assert_eq!(index.position(JobId(3)), Some(0));
    }

    #[test]
    fn placer_by_name_inverts_name() {
        for name in [
            "NetPack", "GB", "FB", "LF", "Optimus", "Tetris", "Comb", "Random",
        ] {
            assert_eq!(placer_by_name(name).map(|p| p.name()), Some(name));
        }
        assert!(
            placer_by_name("Exact").is_none(),
            "built with a budget, not looked up"
        );
        assert!(placer_by_name("nope").is_none());
    }

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 3,
            gpus_per_server: 2,
            ..ClusterSpec::paper_default()
        })
    }

    fn job(id: u64, gpus: usize) -> Job {
        Job::builder(JobId(id), ModelKind::ResNet50, gpus).build()
    }

    #[test]
    fn greedy_batch_tracks_intra_batch_consumption() {
        let c = cluster();
        let batch = [job(0, 2), job(1, 2), job(2, 2), job(3, 2)];
        // Place each job on the first server with free GPUs.
        let outcome = greedy_batch(&c, None, &batch, |scratch, _, j, order| {
            order.clear();
            order.extend(scratch.servers().map(|s| s.id()));
            let workers = take_in_order(scratch, order, j.gpus)?;
            Some(Placement::new(workers, None))
        });
        // 6 GPUs total: three jobs fit, the fourth defers.
        assert_eq!(outcome.placed.len(), 3);
        assert_eq!(outcome.deferred.len(), 1);
        assert_eq!(outcome.deferred[0].id, JobId(3));
    }

    #[test]
    fn greedy_batch_defers_overcommitted_proposals_without_panicking() {
        let c = cluster();
        // A buggy single-job placer proposing 5 GPUs on a 2-GPU server:
        // the proposal is deferred, the scratch ledger stays clean, and
        // later feasible proposals still land.
        let batch = [job(0, 5), job(1, 2)];
        let outcome = greedy_batch(&c, None, &batch, |_, _, j, _| {
            Some(Placement::new(vec![(ServerId(0), j.gpus)], None))
        });
        assert_eq!(outcome.deferred.len(), 1);
        assert_eq!(outcome.deferred[0].id, JobId(0));
        assert_eq!(outcome.placed.len(), 1);
        assert_eq!(outcome.placed[0].0.id, JobId(1));
    }

    #[test]
    fn greedy_batch_rolls_back_partial_overcommits() {
        let c = cluster();
        // Worker list (2@s0, 2@s1, 2@s2, 1@s0): the first three allocations
        // succeed, the fourth overcommits; all three must be rolled back so
        // the follow-up job still sees a virgin ledger.
        let over = Placement::new(
            vec![
                (ServerId(0), 2),
                (ServerId(1), 2),
                (ServerId(2), 2),
                (ServerId(0), 1),
            ],
            None,
        );
        let batch = [job(0, 7), job(1, 6)];
        let mut first = true;
        let outcome = greedy_batch(&c, None, &batch, |_, _, _, _| {
            if first {
                first = false;
                Some(over.clone())
            } else {
                Some(Placement::new(
                    vec![(ServerId(0), 2), (ServerId(1), 2), (ServerId(2), 2)],
                    Some(ServerId(0)),
                ))
            }
        });
        assert_eq!(outcome.deferred.len(), 1);
        assert_eq!(outcome.placed.len(), 1, "rollback must free the GPUs");
    }

    #[test]
    fn greedy_batch_hands_place_one_the_state_of_everything_placed() {
        // Four 2-GPU servers; a running job spans s1 and s2 with its PS on
        // s0. The scripted proposals place job 0, over-commit job 1 (s1
        // has one GPU free), place jobs 2 and 3, and propose nothing for
        // job 4 — so calls 2 to 4 would see job 1's flows if a deferred
        // proposal were ever pushed.
        let mut c = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 4,
            gpus_per_server: 2,
            ..ClusterSpec::paper_default()
        });
        let running = [RunningJob {
            id: JobId(9),
            gradient_gbits: 4.0,
            placement: Placement::new(vec![(ServerId(1), 1), (ServerId(2), 1)], Some(ServerId(0))),
        }];
        c.allocate_gpus(ServerId(1), 1).unwrap();
        c.allocate_gpus(ServerId(2), 1).unwrap();
        let span = |a: usize, b: usize, w: usize, ps: usize| {
            Some(Placement::new(
                vec![(ServerId(a), w), (ServerId(b), w)],
                Some(ServerId(ps)),
            ))
        };
        let proposals = [
            span(0, 3, 1, 3),
            span(1, 2, 2, 1),
            span(1, 2, 1, 2),
            span(0, 3, 1, 0),
            None,
        ];
        let batch: Vec<Job> = (0..proposals.len() as u64).map(|id| job(id, 2)).collect();
        let run = |running: Option<&[RunningJob]>| {
            let mut seen = Vec::new();
            let outcome = greedy_batch(&c, running, &batch, |_, state, j, _| {
                seen.push(state.cloned());
                proposals[j.id.0 as usize].clone()
            });
            (outcome, seen)
        };

        let (outcome, seen) = run(Some(&running));
        let placed: Vec<JobId> = outcome.placed.iter().map(|(j, _)| j.id).collect();
        assert_eq!(placed, [JobId(0), JobId(2), JobId(3)]);
        assert_eq!(outcome.deferred.len(), 2);
        assert_eq!(seen.len(), batch.len(), "one call per job");
        for (i, state) in seen.iter().enumerate() {
            let mut jobs: Vec<PlacedJob> = running.iter().map(|r| r.to_placed(&c)).collect();
            jobs.extend(
                outcome
                    .placed
                    .iter()
                    .filter(|(j, _)| j.id.0 < i as u64)
                    .map(|(j, p)| PlacedJob::new(j.id, &c, p)),
            );
            let want = netpack_waterfill::estimate(&c, &jobs);
            let state = state
                .as_ref()
                .expect("running jobs given: a state every call");
            assert_eq!(state.first_difference(&want), None, "call {i}");
        }

        let (bare, seen) = run(None);
        assert!(
            seen.iter().all(Option::is_none),
            "no running jobs: no state"
        );
        assert_eq!(bare.placed.len(), outcome.placed.len());
    }

    #[test]
    fn infinite_rate_jobs_contribute_exactly_zero() {
        // Degenerate placement: spanning workers but no PS yields no
        // network components, so the estimator reports an infinite rate
        // and the objective must count exactly 0 s for it (not NaN, not a
        // rounding residue). This pins the tie-break the exact search
        // relies on: a degenerate job can tie with, never beat, a local
        // placement that also scores 0.
        let c = cluster();
        let no_ps = Placement::new(vec![(ServerId(0), 1), (ServerId(1), 1)], None);
        let placed = vec![(job(0, 2), no_ps.clone())];
        let obj = batch_comm_time_s(&c, &[], &placed);
        assert_eq!(obj.to_bits(), 0.0f64.to_bits());

        // Mixed batch: the infinite-rate job's 0.0 must leave the finite
        // job's contribution bit-identical to what it scores alone.
        let spanning = Placement::new(vec![(ServerId(1), 1), (ServerId(2), 1)], Some(ServerId(0)));
        let alone = batch_comm_time_s(&c, &[], &[(job(1, 2), spanning.clone())]);
        let mixed = batch_comm_time_s(&c, &[], &[(job(0, 2), no_ps), (job(1, 2), spanning)]);
        assert!(alone.is_finite() && alone > 0.0);
        assert_eq!(mixed.to_bits(), alone.to_bits());
    }

    #[test]
    fn take_in_order_skips_full_servers() {
        let mut c = cluster();
        c.allocate_gpus(ServerId(0), 2).unwrap();
        let order: Vec<ServerId> = c.servers().map(|s| s.id()).collect();
        let chosen = take_in_order(&c, &order, 3).unwrap();
        assert_eq!(chosen, vec![(ServerId(1), 2), (ServerId(2), 1)]);
    }

    #[test]
    fn take_in_order_reports_shortage() {
        let c = cluster();
        let order: Vec<ServerId> = c.servers().map(|s| s.id()).collect();
        assert!(take_in_order(&c, &order, 7).is_none());
    }

    #[test]
    fn running_job_converts_to_placed() {
        let c = cluster();
        let r = RunningJob {
            id: JobId(5),
            gradient_gbits: 4.0,
            placement: Placement::new(vec![(ServerId(0), 1), (ServerId(1), 1)], Some(ServerId(2))),
        };
        let placed = r.to_placed(&c);
        assert_eq!(placed.id(), JobId(5));
        assert!(placed.hierarchy().is_some());
    }
}
