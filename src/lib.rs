#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! NetPack: training-job placement for GPU clusters with statistical
//! in-network aggregation.
//!
//! This crate is the facade of a full Rust reproduction of *"Training Job
//! Placement in Clusters with Statistical In-Network Aggregation"*
//! (ASPLOS 2024). It re-exports every subsystem:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`topology`] | `netpack-topology` | clusters, racks, servers, links, PAT |
//! | [`workload`] | `netpack-workload` | DNN model zoo, jobs, trace synthesis |
//! | [`model`] | `netpack-model` | the Table-1 aggregation model and job hierarchies |
//! | [`waterfill`] | `netpack-waterfill` | Algorithm 1 steady-state estimation |
//! | [`placement`] | `netpack-placement` | Algorithm 2 (NetPack) + six baselines + exact solver |
//! | [`manager`] | `netpack-core` | the periodic batching job manager |
//! | [`service`] | `netpack-service` | the continuous placement service (open-loop command stream) |
//! | [`flowsim`] | `netpack-flowsim` | flow-level trace-replay simulator |
//! | [`packetsim`] | `netpack-packetsim` | packet-level statistical-INA switch simulator |
//! | [`metrics`] | `netpack-metrics` | JCT, distribution efficiency, stats |
//!
//! # Quickstart
//!
//! ```
//! use netpack::prelude::*;
//!
//! // The paper's default simulated cluster and a small production-like
//! // trace, scheduled by NetPack.
//! let cluster = Cluster::new(ClusterSpec::paper_testbed());
//! let trace = TraceSpec::new(TraceKind::Real, 10)
//!     .seed(1)
//!     .duration_scale(0.02)
//!     .max_gpus(8)
//!     .generate();
//! let result = Simulation::new(
//!     cluster,
//!     Box::new(NetPackPlacer::default()),
//!     SimConfig::default(),
//! )
//! .run(&trace);
//! println!("average JCT: {:.1} s", result.average_jct_s().unwrap());
//! ```

pub use netpack_core as manager;
pub use netpack_flowsim as flowsim;
pub use netpack_metrics as metrics;
pub use netpack_model as model;
pub use netpack_packetsim as packetsim;
pub use netpack_placement as placement;
pub use netpack_service as service;
pub use netpack_topology as topology;
pub use netpack_waterfill as waterfill;
pub use netpack_workload as workload;

/// The most frequently used items in one import.
pub mod prelude {
    pub use netpack_core::JobManager;
    pub use netpack_flowsim::{SimConfig, SimResult, Simulation};
    pub use netpack_metrics::{average_jct_s, distribution_efficiency, Summary, TextTable};
    pub use netpack_model::{JobHierarchy, Placement};
    pub use netpack_packetsim::{MemoryMode, PacketJobSpec, PacketSim, SwitchConfig};
    pub use netpack_placement::{
        Comb, FlowBalance, GpuBalance, LeastFragmentation, NetPackConfig, NetPackPlacer,
        OptimusLike, Placer, RandomPlacer, TetrisLike,
    };
    pub use netpack_topology::{Cluster, ClusterSpec, JobId, LinkId, RackId, ServerId};
    pub use netpack_waterfill::{estimate, PlacedJob, SteadyState};
    pub use netpack_workload::{Job, ModelKind, Trace, TraceKind, TraceSpec};
}
