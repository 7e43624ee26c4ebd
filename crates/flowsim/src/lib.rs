#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Discrete-event flow-level cluster simulator — the paper's evaluation
//! vehicle (§6.1 "Simulator").
//!
//! The simulator replays a job trace against a cluster managed by any
//! [`Placer`]. Job rates are fluid: between events every running job's
//! per-worker rate is the water-filled max-min steady state, so an
//! iteration takes `compute_time + gradient / rate` seconds and progress
//! accumulates linearly. Events — arrivals, scheduling epochs, and job
//! completions — trigger a rate recomputation, exactly as real statistical
//! INA re-converges when the competing flow set changes.
//!
//! Recomputation is incremental: a warm water-filling estimator — over
//! NetPack, the one inside the `NetPackSession` that also places the jobs
//! — re-solves only the resource-connected components an event touched
//! and names the jobs it re-solved, so only those are re-rated, and
//! completions come off a lazy-invalidation min-heap instead of a
//! per-event scan (see the [`sim`](self) internals). There is one
//! production path and no option selects another: the from-scratch
//! oracle it is bit-identical to is the hidden
//! `Simulation::run_reference`, which tests call directly. This crate reads no environment variable.
//!
//! The fluid model assumes every job communicates continuously. Real
//! iterative jobs interleave compute and communication and can take turns
//! in the switch memory (the paper observes this in Fig. 14b); the fluid
//! view is therefore conservative about INA's benefit for *every* placer
//! equally, preserving the comparisons the figures make.
//!
//! [`Placer`]: netpack_placement::Placer
//!
//! # Example
//!
//! ```
//! use netpack_flowsim::{Simulation, SimConfig};
//! use netpack_placement::NetPackPlacer;
//! use netpack_topology::{Cluster, ClusterSpec};
//! use netpack_workload::{TraceKind, TraceSpec};
//!
//! let cluster = Cluster::new(ClusterSpec::paper_testbed());
//! let trace = TraceSpec::new(TraceKind::Real, 20)
//!     .seed(1)
//!     .duration_scale(0.02)
//!     .max_gpus(8)
//!     .generate();
//! let result = Simulation::new(cluster, Box::new(NetPackPlacer::default()),
//!     SimConfig::default()).run(&trace);
//! assert_eq!(result.outcomes.len(), 20);
//! assert!(result.average_jct_s().unwrap() > 0.0);
//! ```

mod outcome;
mod sim;

pub use outcome::{JobOutcome, SimResult};
pub use sim::{InaMode, SimConfig, Simulation};
