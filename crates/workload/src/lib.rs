#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Distributed-training workload model and trace synthesis for NetPack.
//!
//! The paper evaluates NetPack with six DNN models (VGG11/16/19, AlexNet,
//! ResNet50/101) trained on ImageNet, driven by three job traces (§6.1):
//!
//! * **Real** — job durations and GPU demands drawn from the Microsoft
//!   Philly production logs. We do not ship the proprietary logs; instead
//!   [`TraceKind::Real`] synthesizes a trace matching the published Philly
//!   characteristics (heavy-tailed durations, power-of-two GPU demands
//!   dominated by small jobs, bursty arrivals). The paper itself only uses
//!   the logs' (start, end, #GPUs) triples and assigns model types randomly
//!   from the same pool, so this reproduces all the information the
//!   pipeline consumes.
//! * **Poisson** — GPU demands follow a Poisson distribution.
//! * **Normal** — GPU demands follow a normal distribution.
//!
//! # Example
//!
//! ```
//! use netpack_workload::{TraceKind, TraceSpec};
//!
//! let trace = TraceSpec::new(TraceKind::Real, 100).seed(7).generate();
//! assert_eq!(trace.jobs().len(), 100);
//! assert!(trace.jobs().iter().all(|j| j.gpus >= 1));
//! ```

mod csv;
mod job;
mod model;
mod trace;

pub use csv::{ParseTraceError, TRACE_CSV_HEADER};
pub use job::{xorshift_batch, Job, JobBuilder};
pub use model::ModelKind;
pub use trace::{ArrivalProcess, Trace, TraceKind, TraceSpec};
