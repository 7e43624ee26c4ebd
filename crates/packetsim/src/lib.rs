#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Packet-level statistical-INA switch simulator — the testbed stand-in.
//!
//! The paper's testbed (§6.1) is five GPU servers behind a Tofino switch
//! running ATP-style statistical INA. Its role in the evaluation is to
//! validate the PAT abstraction (Fig. 14), the water-filling estimates
//! (Fig. 15), the flow-level simulator itself (Fig. 6), and to produce
//! small-scale JCT numbers. All of those depend on the *statistical
//! multiplexing semantics* of switch memory, which this crate reproduces
//! at packet granularity:
//!
//! * the switch keeps a shared pool of aggregator slots;
//! * each job's slots start at a seeded base and its PSNs run
//!   sequentially from it: group `PSN` addresses slot
//!   `(base + PSN) mod pool`, so a job never collides with itself; the
//!   first packet of a `(job, PSN)` group reserves the slot, the completed
//!   aggregate is multicast back and the slot is released within the same
//!   RTT;
//! * a packet that collides with a busy slot *falls back* to the PS
//!   unaggregated;
//! * senders run windowed AIMD, so jobs converge to max-min shares;
//! * jobs alternate compute and communicate phases, releasing all switch
//!   memory while computing (the effect behind the paper's Fig. 14b note).
//!
//! The synchronous mode (SwitchML-style fixed memory regions, released
//! "one window away") is also implemented for the Fig. 2 motivation
//! comparison.
//!
//! [`PacketSim::run`] is the one production round loop: interval-overlap
//! collision counting plus steady-state round batching (see the
//! [`sim`](self) module docs and DESIGN.md §3.8). The literal per-packet
//! loop it is bit-identical to stays in the library as the hidden oracle
//! `PacketSim::run_reference`, reached only by calling it; the report's
//! `perf` block records how much work either loop actually did. This
//! crate reads no environment variable.
//!
//! # Example
//!
//! ```
//! use netpack_packetsim::{PacketSim, SwitchConfig, PacketJobSpec, MemoryMode};
//! use netpack_topology::JobId;
//!
//! let mut sim = PacketSim::new(SwitchConfig::default());
//! sim.add_job(PacketJobSpec {
//!     id: JobId(0),
//!     fan_in: 2,
//!     gradient_gbits: 0.4,
//!     compute_time_s: 0.0,
//!     iterations: 0,       // stream forever
//!     start_s: 0.0,
//!     target_gbps: Some(10.0),
//! });
//! let report = sim.run(0.05);
//! let stats = &report.per_job[0];
//! // With the default generous pool, nearly everything aggregates.
//! assert!(stats.aggregation_ratio() > 0.95);
//! ```

mod hierarchy;
mod sim;
mod stats;

pub use hierarchy::{run_hierarchy, slots_to_pat_gbps, HierarchyReport, HierarchySpec};
pub use sim::{MemoryMode, PacketJobSpec, PacketSim, SwitchConfig};
pub use stats::{JobStats, PacketSimReport};
