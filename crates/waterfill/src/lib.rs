#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Steady-state estimation for statistical INA — the paper's Algorithm 1.
//!
//! In statistical INA the network allocates itself: jobs run endpoint
//! congestion control, contend for link bandwidth *and* switch memory, and
//! converge to a max-min fair steady state the controller never sees. To
//! place jobs well, NetPack must therefore *estimate* that steady state.
//!
//! Classic water-filling estimates bandwidth sharing only. The twist here
//! (§4.2) is that INA couples two resources: switch memory aggregates
//! traffic and thereby *reduces* bandwidth consumption. The paper resolves
//! the coupling through the PAT abstraction — switch memory expressed as
//! equivalent aggregation throughput — which lets one water-filling pass
//! fill both resources jointly:
//!
//! 1. every active job's per-worker rate rises in lock-step;
//! 2. each link drains at `rate × flows`, each aggregating switch's PAT
//!    drains at `rate` per aggregating job;
//! 3. when a switch's PAT empties, the jobs aggregating there keep running
//!    but their flows fan out (Table 1), steepening their bandwidth drain;
//! 4. when a link empties, every job crossing it freezes at its current
//!    rate — its max-min fair share.
//!
//! # Example
//!
//! ```
//! use netpack_topology::{Cluster, ClusterSpec, ServerId, JobId};
//! use netpack_model::{Placement, JobHierarchy};
//! use netpack_waterfill::{estimate, PlacedJob};
//!
//! let cluster = Cluster::new(ClusterSpec::paper_testbed());
//! // Two identical jobs sharing the PS's access link.
//! let make = |id: u64, w1: usize, w2: usize, ps: usize| PlacedJob::new(
//!     JobId(id),
//!     &cluster,
//!     &Placement::new(vec![(ServerId(w1), 1), (ServerId(w2), 1)], Some(ServerId(ps))),
//! );
//! let jobs = [make(0, 0, 1, 2), make(1, 3, 4, 2)];
//! let state = estimate(&cluster, &jobs);
//! let r0 = state.job_rate_gbps(JobId(0)).unwrap();
//! let r1 = state.job_rate_gbps(JobId(1)).unwrap();
//! // Max-min fairness: the shared bottleneck splits evenly.
//! assert!((r0 - r1).abs() < 1e-6);
//! ```

//!
//! # Placement-time fast path
//!
//! [`estimate`] solves each resource-connected component of the job set
//! independently (jobs interact only through shared links or shared,
//! INA-active PAT pools). [`IncrementalEstimator`] exploits that: it keeps
//! the converged state warm and, when a job is added or removed, re-solves
//! only the component the job touches — bit-identical to a from-scratch
//! solve, but skipping every untouched component. A caller that applies
//! many changes between two reads *stages* them and settles once: each
//! touched component is then solved once, however many ops hit it. See the
//! [`incremental`] module docs for the stage/settle split and the
//! invalidation rules.

pub mod incremental;
#[cfg(test)]
mod literal;
mod state;
mod synchronous;
mod waterfill;

pub use incremental::{IncrementalEstimator, WaterfillStats};
pub use state::SteadyState;
pub use synchronous::estimate_synchronous;
pub use waterfill::{estimate, PlacedJob};

/// Residuals below this threshold (in Gbps) are treated as exhausted.
pub const EPSILON_GBPS: f64 = 1e-9;
