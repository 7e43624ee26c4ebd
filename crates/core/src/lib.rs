#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! The NetPack job manager — the control loop of Fig. 4.
//!
//! The manager is the cluster-wide component users submit jobs to
//! (step 1). Each scheduling epoch it batches the pending queue, consults
//! the network information base (the [`Cluster`]), lets its [`Placer`]
//! propose placements (steps 2-4), validates and enforces them on the GPU
//! ledger, and hands the decisions to the caller's enforcement hook
//! (step 5 — in this reproduction, the flow-level simulator's job table).
//! Its books hold one [`RunningJob`] per running job — under
//! [`JobManager::warm`] the books are the `NetPackSession` itself — and
//! [`JobManager::finish`] hands that record back.
//!
//! Deferred jobs age: their knapsack value grows by
//! [`DEFERRAL_AGING`](netpack_placement::DEFERRAL_AGING) every epoch they
//! wait, which is the paper's starvation-avoidance rule for FindSubset.
//! The epoch length is the caller's: the flow simulator runs one epoch
//! a minute.
//!
//! The manager is the closed-loop, epoch-at-a-time half: the simulators
//! drive it, and a job leaves through [`JobManager::finish`] only. The
//! open-loop half — submissions, cancellations and completions arriving
//! as a command stream — is `netpack-service`, which runs the same batch
//! policy ([`placement_order`](netpack_placement::placement_order) and the
//! same aging) on a `NetPackSession` of its own and does not pass through
//! here.
//!
//! [`Cluster`]: netpack_topology::Cluster
//! [`Placer`]: netpack_placement::Placer
//! [`RunningJob`]: netpack_placement::RunningJob
//!
//! # Example
//!
//! ```
//! use netpack_core::JobManager;
//! use netpack_placement::NetPackPlacer;
//! use netpack_topology::{Cluster, ClusterSpec, JobId};
//! use netpack_workload::{Job, ModelKind};
//!
//! let cluster = Cluster::new(ClusterSpec::paper_testbed());
//! let mut manager = JobManager::new(cluster, Box::new(NetPackPlacer::default()));
//! manager.submit(Job::builder(JobId(0), ModelKind::ResNet50, 4).build());
//! let decisions = manager.run_epoch();
//! assert_eq!(decisions.len(), 1);
//! assert_eq!(manager.running().len(), 1);
//! manager.finish(JobId(0))?;
//! assert!(manager.running().is_empty());
//! # Ok::<(), netpack_placement::SessionError>(())
//! ```

mod manager;

pub use manager::JobManager;
