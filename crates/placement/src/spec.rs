//! Speculative intra-batch parallelism with deterministic commit
//! (`NETPACK_BATCH=spec`, the default; see `DESIGN.md` §3.13).
//!
//! Algorithm 2's greedy loop is inherently sequential: each job is scored
//! against the steady state left by every previously *placed* job. This
//! engine extracts the parallelism that loop hides without changing a
//! single placement bit:
//!
//! 1. **Speculate.** A window of pending jobs is scored concurrently
//!    against the *current* committed state, each scoring worker on its
//!    own [`FlatBatch`] fork (same GPU ledger snapshot, private scratch).
//! 2. **Commit in order.** Jobs commit strictly in the sequential
//!    reference order. A speculation taken at the current epoch is the
//!    sequential answer by definition. A stale speculation commits only
//!    if it provably still equals what a fresh scoring would produce:
//!    * **Local** placements (single-server shortcut) carry their winning
//!      `(server, fit, avail)` triple. The shortcut scan is a pure argmin
//!      over per-server `(free GPUs − demand, residual bandwidth, id)`
//!      keys, so the stale winner survives exactly when no server touched
//!      by an intervening commit beats that key and the winner itself is
//!      untouched — an exact, cheap check against the commit deltas.
//!    * **Spanning** and **deferred** speculations are revalidated only by
//!      epoch equality. Candidate admission, the DP's plan list, and the
//!      PS scores are all non-monotone in the state (shrinking free GPUs
//!      can make a server *more* attractive to the filter; added flows
//!      *raise* hot-spot scores), so no cheap footprint test is sound —
//!      any intervening commit forces a re-score.
//! 3. **Re-score on conflict.** Invalidated jobs return to the next
//!    round's window and are scored against the new state — the loop
//!    always commits the job at the frontier (scored at the current epoch
//!    by construction), so every round makes progress and the engine
//!    terminates with the sequential loop's exact placements, deferrals,
//!    and objective.
//!
//! Deferrals commit without touching any state, so a run of deferred jobs
//! — the common case in a saturated cluster — validates and commits in a
//! single round no matter how stale. A degenerate window of one job is
//! scored on the master arenas with the placer's *inner* parallelism
//! (plan fan-out), so `spec` never does more work than `seq` even when
//! speculation cannot help.

use crate::flat::{grab_slot, FlatBatch, SpecProbe};
use crate::netpack::NetPackPlacer;
use crate::session::allocate_all;
use netpack_metrics::{parallel_sweep_with, PerfCounters, Stopwatch};
use netpack_model::Placement;
use netpack_topology::{Cluster, ServerId};
use netpack_waterfill::{IncrementalEstimator, PlacedJob, SteadyState};
use netpack_workload::Job;
use std::sync::Mutex;

/// What the engine scores against and commits into: the stateless batch
/// path and the persistent session differ only in how a committed
/// placement lands (estimator push vs. cluster ledger + tracker + INA
/// bookkeeping), abstracted here so both share one engine.
pub(crate) trait SpecWorld {
    /// The cluster the scorer reads (static spec and topology only; the
    /// flat ledger carries the free-GPU state).
    fn cluster(&self) -> &Cluster;
    /// Steady state over everything committed so far.
    fn state(&self) -> &SteadyState;
    /// Apply a committed placement to the bandwidth model (the flat
    /// ledger is already debited). On success, appends every server whose
    /// flows or residual bandwidth the push changed onto `changed` and
    /// returns `true`; returns `false` if the world refused the placement
    /// (the engine then rolls the flat ledger back and defers the job).
    fn push(
        &mut self,
        job: &Job,
        placement: &Placement,
        changed: &mut Vec<u32>,
        perf: &mut PerfCounters,
    ) -> bool;
}

/// [`SpecWorld`] over the stateless batch path's per-call estimator.
pub(crate) struct FastWorld<'a> {
    pub cluster: &'a Cluster,
    pub inc: &'a mut IncrementalEstimator,
}

impl SpecWorld for FastWorld<'_> {
    fn cluster(&self) -> &Cluster {
        self.cluster
    }

    fn state(&self) -> &SteadyState {
        self.inc.state()
    }

    fn push(
        &mut self,
        job: &Job,
        placement: &Placement,
        changed: &mut Vec<u32>,
        perf: &mut PerfCounters,
    ) -> bool {
        let start = Stopwatch::start();
        self.inc
            .push(self.cluster, PlacedJob::new(job.id, self.cluster, placement));
        perf.record("waterfill_solve", start.elapsed());
        collect_dirty_servers(self.cluster, self.inc, changed);
        true
    }
}

/// [`SpecWorld`] over the persistent session: commits also debit the
/// authoritative cluster ledger and record the pushed INA flag.
pub(crate) struct SessionWorld<'a> {
    pub cluster: &'a mut Cluster,
    pub tracker: &'a mut IncrementalEstimator,
    pub pushed_ina: &'a mut Vec<bool>,
}

impl SpecWorld for SessionWorld<'_> {
    fn cluster(&self) -> &Cluster {
        self.cluster
    }

    fn state(&self) -> &SteadyState {
        self.tracker.state()
    }

    fn push(
        &mut self,
        job: &Job,
        placement: &Placement,
        changed: &mut Vec<u32>,
        perf: &mut PerfCounters,
    ) -> bool {
        if !allocate_all(self.cluster, placement) {
            return false;
        }
        let start = Stopwatch::start();
        self.tracker
            .push(self.cluster, PlacedJob::new(job.id, self.cluster, placement));
        perf.record("waterfill_solve", start.elapsed());
        self.pushed_ina.push(placement.ina_enabled());
        collect_dirty_servers(self.cluster, self.tracker, changed);
        true
    }
}

/// Append the server-level dirty set of the estimator's most recent push:
/// node indices below the server count are exactly the access-link slots.
fn collect_dirty_servers(cluster: &Cluster, inc: &IncrementalEstimator, changed: &mut Vec<u32>) {
    let ns = cluster.servers().len();
    for &node in inc.last_dirty_nodes() {
        if node < ns {
            changed.push(node as u32);
        }
    }
}

/// What the engine hands back; the caller splices it into its
/// `BatchOutcome` (both lists are in the sequential commit order).
pub(crate) struct SpecOutcome {
    pub placed: Vec<(Job, Placement)>,
    pub deferred: Vec<Job>,
}

/// One job's speculation: the state epoch it was scored at, the proposed
/// placement, and the [`SpecProbe`] footprint validation keys off.
struct Slot {
    epoch: usize,
    placement: Option<Placement>,
    probe: SpecProbe,
}

const NEVER: usize = usize::MAX;

/// Exact revalidation of a stale Local speculation: the shortcut scan is
/// `argmin` over keys `(free − gpus, Reverse(avail), id)` among fitting
/// servers, so the stale winner holds exactly when it is untouched and no
/// server in the intervening commit deltas now carries a smaller key.
/// Untouched servers keep their old key, which already lost to the winner.
fn local_still_wins(
    fb: &FlatBatch,
    state: &SteadyState,
    deltas: &[Vec<u32>],
    gpus: usize,
    server: usize,
    fit: usize,
    avail: f64,
) -> bool {
    use std::cmp::Ordering;
    for delta in deltas {
        for &s in delta {
            let s = s as usize;
            if s == server {
                return false;
            }
            let free = fb.ledger()[s] as usize;
            if free < gpus {
                continue;
            }
            let d = free - gpus;
            let cmp = state.server_available_gbps(ServerId(s)).total_cmp(&avail);
            if d < fit
                || (d == fit && cmp == Ordering::Greater)
                || (d == fit && cmp == Ordering::Equal && s < server)
            {
                return false;
            }
        }
    }
    true
}

/// Run one batch through the speculative engine. `ordered` is the
/// knapsack-selected subset in the sequential commit order
/// (value-descending, ties by id); the result is bit-identical to feeding
/// `ordered` through the reference loop one job at a time.
pub(crate) fn place_batch_spec<W: SpecWorld>(
    placer: &NetPackPlacer,
    fb: &mut FlatBatch,
    world: &mut W,
    ordered: &[&Job],
    perf: &mut PerfCounters,
) -> SpecOutcome {
    let n = ordered.len();
    let threads = placer.threads();
    // With one worker, speculation is pure overhead: every wasted score is
    // serialized. Pin the window to 1 so `spec` degenerates to the
    // sequential loop's exact cost; with real parallelism, let it stretch
    // to keep the workers fed.
    let max_window = if threads <= 1 { 1 } else { threads * 4 };
    let mut window = threads.max(1).min(max_window);
    let mut slots: Vec<Slot> = (0..n)
        .map(|_| Slot {
            epoch: NEVER,
            placement: None,
            probe: SpecProbe::Deferred,
        })
        .collect();
    // Commit deltas: sorted server sets, one per placed commit. The epoch
    // counter IS `deltas.len()` — deferrals change nothing and bump
    // nothing, which is what lets deferral runs commit while stale.
    let mut deltas: Vec<Vec<u32>> = Vec::new();
    let mut forks: Vec<Mutex<FlatBatch>> = Vec::new();
    let mut out = SpecOutcome {
        placed: Vec::new(),
        deferred: Vec::new(),
    };
    let mut frontier = 0usize;
    while frontier < n {
        let cur = deltas.len();
        // Phase 1: score every stale job in the window against the
        // current state.
        let end = n.min(frontier + window);
        let need: Vec<usize> = (frontier..end).filter(|&j| slots[j].epoch != cur).collect();
        perf.incr("spec_rounds", 1);
        perf.incr("spec_scored", need.len() as u64);
        if need.len() == 1 {
            // Degenerate window: master arenas + inner parallelism, the
            // sequential loop's exact cost profile.
            let j = need[0];
            let one_start = Stopwatch::start();
            let (placement, probe) =
                placer.place_one_flat_traced(fb, world.cluster(), world.state(), ordered[j], perf);
            perf.record("place_one", one_start.elapsed());
            slots[j] = Slot {
                epoch: cur,
                placement,
                probe,
            };
        } else if !need.is_empty() {
            let workers = threads.min(need.len());
            while forks.len() < workers {
                forks.push(Mutex::new(fb.fork()));
            }
            for f in &forks {
                grab_slot(std::slice::from_ref(f)).sync_from(fb);
            }
            let cluster = world.cluster();
            let state = world.state();
            let results = parallel_sweep_with(threads, &need, |&j| {
                let mut fork = grab_slot(&forks);
                let mut local_perf = PerfCounters::new();
                let one_start = Stopwatch::start();
                let r = placer.place_one_flat_traced(
                    &mut fork,
                    cluster,
                    state,
                    ordered[j],
                    &mut local_perf,
                );
                local_perf.record("place_one", one_start.elapsed());
                (r, local_perf)
            });
            for (&j, ((placement, probe), local_perf)) in need.iter().zip(results) {
                perf.merge(&local_perf);
                slots[j] = Slot {
                    epoch: cur,
                    placement,
                    probe,
                };
            }
        }
        // Phase 2: commit from the frontier while speculations hold. The
        // frontier job is always valid after phase 1 (scored at the
        // current epoch), so the loop advances every round.
        let mut committed = 0usize;
        while frontier < n {
            let cur = deltas.len();
            let slot = &slots[frontier];
            if slot.epoch == NEVER {
                break;
            }
            let valid = slot.epoch == cur
                || match slot.probe {
                    SpecProbe::Local { server, fit, avail } => local_still_wins(
                        fb,
                        world.state(),
                        &deltas[slot.epoch..],
                        ordered[frontier].gpus,
                        server,
                        fit,
                        avail,
                    ),
                    SpecProbe::Spanning | SpecProbe::Deferred => false,
                };
            if !valid {
                perf.incr("spec_conflicts", 1);
                break;
            }
            if slot.epoch != cur {
                perf.incr("spec_commits_validated", 1);
            }
            let job = ordered[frontier];
            match slots[frontier].placement.take() {
                Some(p) if fb.commit(&p) => {
                    let mut changed: Vec<u32> =
                        p.workers().iter().map(|&(s, _)| s.0 as u32).collect();
                    if world.push(job, &p, &mut changed, perf) {
                        changed.sort_unstable();
                        changed.dedup();
                        deltas.push(changed);
                        out.placed.push((job.clone(), p));
                    } else {
                        // Undoing the commit just made cannot be refused.
                        let _ = fb.credit(&p);
                        out.deferred.push(job.clone());
                    }
                }
                _ => out.deferred.push(job.clone()),
            }
            frontier += 1;
            committed += 1;
        }
        // Adapt the window to the observed hit rate. This only changes
        // how much speculative work the next round does — never which
        // placements commit.
        window = if committed >= window {
            (window * 2).min(max_window)
        } else {
            committed.max(1)
        };
    }
    SpecOutcome {
        placed: out.placed,
        deferred: out.deferred,
    }
}
