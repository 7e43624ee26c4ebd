#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Long-running NetPack placement service: an open-loop command stream in,
//! a continuously placed cluster out.
//!
//! The batch experiments in this workspace drive the placer in a closed
//! loop — build a trace, place it, measure. A production scheduler instead
//! faces an **open-loop** stream of submissions, cancellations, and
//! completions that does not wait for placement to finish. This crate is
//! that front end, in three layers:
//!
//! * [`ServiceConfig`] — typed tunables (batch cap, queue and channel
//!   caps, event log). The crate reads no environment variable: a binary
//!   parses whatever knobs it offers and fills the fields.
//! * [`ServiceCore`] — the deterministic engine: a
//!   [`NetPackSession`](netpack_placement::NetPackSession) kept warm
//!   across batches (no per-batch topology or steady-state rebuild), a
//!   pending queue with backpressure, per-operation counters, a
//!   submit-to-placement latency histogram, and an optional event log.
//!   Driven synchronously it is byte-reproducible: the same command
//!   stream always yields the same event log.
//! * [`PlacementService`] — a thread wrapping the core behind a bounded
//!   command channel. The drain loop takes up to `max_batch` commands per
//!   placement pass, waiting a short gather window for a trickle to
//!   coalesce, so batch size follows queue depth.
//!
//! # Example
//!
//! ```
//! use netpack_service::{Command, PlacementService, ServiceConfig};
//! use netpack_topology::{Cluster, ClusterSpec, JobId};
//! use netpack_workload::{Job, ModelKind};
//!
//! let cluster = Cluster::new(ClusterSpec::paper_testbed());
//! let svc = PlacementService::spawn(cluster, ServiceConfig::default());
//! svc.send(Command::Submit(Job::builder(JobId(0), ModelKind::Vgg16, 4).build()));
//! svc.send(Command::Complete(JobId(0)));
//! let report = svc.shutdown();
//! assert_eq!(report.counters.submitted, 1);
//! ```

mod config;
mod core;
mod runtime;

pub use config::ServiceConfig;
pub use core::{Command, JobStatus, ServiceCore, ServiceCounters, ServiceReport};
pub use runtime::PlacementService;
