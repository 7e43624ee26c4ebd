#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Cluster topology model for NetPack.
//!
//! NetPack (ASPLOS'24) schedules distributed-training jobs onto a Clos/fat-tree
//! GPU cluster whose Top-of-Rack (ToR) switches perform *statistical
//! in-network aggregation* (INA). Following §4.1 of the paper, the data-center
//! core is abstracted as "one big switch": the only links that matter for
//! resource estimation are
//!
//! 1. each server's access link to its ToR switch, and
//! 2. each rack's uplink into the core (whose capacity encodes the
//!    oversubscription ratio).
//!
//! Each ToR switch additionally exposes a *Peak Aggregation Throughput* (PAT)
//! — the switch-memory resource converted into an equivalent aggregation
//! throughput `A = M / RTT` (paper §4.1).
//!
//! This crate owns the **static configuration** (capacities, GPU inventory)
//! and the **GPU allocation ledger**. Transient network state (residual
//! bandwidth, residual PAT) lives in the water-filling estimator, because in
//! statistical INA the network allocation is decentralized and never enforced
//! by the controller.
//!
//! # Example
//!
//! ```
//! use netpack_topology::{ClusterSpec, Cluster};
//!
//! // The paper's default simulated cluster: 16 racks x 16 servers x 4 GPUs.
//! let cluster = Cluster::new(ClusterSpec::paper_default());
//! assert_eq!(cluster.num_servers(), 256);
//! assert_eq!(cluster.total_gpus(), 1024);
//! assert_eq!(cluster.free_gpus(), 1024);
//! ```

mod cluster;
mod error;
mod fattree;
mod flat;
mod ids;
mod link;
mod spec;

pub use cluster::{Cluster, Rack, Server};
pub use error::TopologyError;
pub use fattree::FatTreeSpec;
pub use flat::FlatTopology;
pub use ids::{JobId, RackId, ServerId};
pub use link::LinkId;
pub use spec::ClusterSpec;
