#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Job-placement algorithms: NetPack (Algorithm 2), six baselines, and an
//! exact reference solver.
//!
//! Every placer answers the same question: *given the cluster's current GPU
//! ledger and the jobs already running, where should this batch of jobs
//! go?* Placers only propose; the job manager (in `netpack-core`) owns the
//! GPU ledger and applies the proposals.
//!
//! Implemented placers:
//!
//! * [`NetPackPlacer`] — the paper's contribution: knapsack job-subset
//!   selection, a `V[s][f][g]` dynamic program over server subsets valued
//!   by water-filled residual bandwidth, PS placement with a hot-spot term,
//!   and selective INA enabling by aggregation efficiency.
//! * [`GpuBalance`], [`FlowBalance`], [`LeastFragmentation`] — the paper's
//!   three heuristic baselines (§6.1).
//! * [`OptimusLike`], [`TetrisLike`] — the two prior-art strategies the
//!   paper compares against.
//! * [`Comb`] — the naive multi-resource combination of §6.4 (Fig. 13).
//! * [`RandomPlacer`] — a sanity floor.
//! * [`ExactPlacer`] — exact search over the Table-3 decision space,
//!   feasible only at toy scale; stands in for the paper's Gurobi MIP.
//!   A pruned branch-and-bound; the exhaustive DFS it is bit-identical
//!   to is the oracle [`reference::place_exact`].
//!
//! # Example
//!
//! ```
//! use netpack_topology::{Cluster, ClusterSpec, JobId};
//! use netpack_workload::{Job, ModelKind};
//! use netpack_placement::{NetPackPlacer, Placer};
//!
//! let cluster = Cluster::new(ClusterSpec::paper_testbed());
//! let job = Job::builder(JobId(0), ModelKind::Vgg16, 4).build();
//! let mut placer = NetPackPlacer::default();
//! let outcome = placer.place_batch(&cluster, &[], std::slice::from_ref(&job));
//! assert_eq!(outcome.placed.len(), 1);
//! assert!(outcome.deferred.is_empty());
//! ```
//!
//! # One production path, one oracle
//!
//! Scoring a batch is the scheduler's hot loop: Algorithm 2 re-estimates
//! the water-filled steady state before every job and scores every
//! `(plan, PS server)` pair. There is exactly one production
//! implementation of it — one batch loop, run by [`NetPackPlacer`] on a
//! ledger and an estimator built for the batch and by [`NetPackSession`]
//! on the ones it keeps: a flat integer-indexed topology mirror with a
//! persistent server-class index, class-deduplicated PS scoring, and an
//! incremental estimator that keeps the steady state warm between jobs
//! (re-solving only the resource component each placement touches); jobs
//! commit one after another in Algorithm 2's order, each placed on one
//! thread. The literal algorithm lives in [`reference`] as the oracle —
//! **bit-identical** to production by the `production_matches_reference`
//! property suite, and reachable only by calling it, never through
//! configuration or environment (this crate reads no environment
//! variable). The work done is visible through
//! [`NetPackPlacer::perf`]:
//!
//! ```
//! use netpack_topology::{Cluster, ClusterSpec, JobId};
//! use netpack_workload::{Job, ModelKind};
//! use netpack_placement::{NetPackPlacer, Placer};
//!
//! let cluster = Cluster::new(ClusterSpec::paper_testbed());
//! let batch: Vec<Job> = (0..3)
//!     .map(|i| Job::builder(JobId(i), ModelKind::Vgg16, 4).build())
//!     .collect();
//! let mut placer = NetPackPlacer::default();
//! placer.place_batch(&cluster, &[], &batch);
//! let perf = placer.perf();
//! assert!(perf.counter("plans_considered") > 0);
//! assert_eq!(perf.timer_count("place_batch"), 1);
//! println!("{}", perf.to_table().render());
//! ```

mod baselines;
mod dp;
mod exact;
mod flat;
mod index;
mod knapsack;
mod ledger;
mod netpack;
mod placer;
mod prior;
pub mod reference;
mod select;
mod session;

pub use baselines::{FlowBalance, GpuBalance, LeastFragmentation, RandomPlacer};
pub use dp::{ServerStats, WorkerDp, WorkerPlan};
pub use exact::ExactPlacer;
pub use knapsack::{placement_order, select_job_subset, DEFERRAL_AGING};
pub use netpack::{HotSpotTerm, InaPolicy, NetPackConfig, NetPackPlacer};
pub use select::CandidateFilter;
pub use placer::{
    batch_comm_time_s, placer_by_name, AdmissionIndex, BatchOutcome, Placer, RunningJob,
};
pub use prior::{Comb, OptimusLike, TetrisLike};
pub use session::{NetPackSession, SessionError};
/// What [`NetPackPlacer::perf`] and [`NetPackSession::perf`] hand back.
pub use netpack_metrics::PerfCounters;
