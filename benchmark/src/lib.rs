//! The repo benchmark: four workloads, six end-to-end metrics, and a
//! traced run that splits each workload's time by layer. See `README.md`
//! in this directory; `run.sh` is the one command.

pub mod adapter;
pub mod batch;
pub mod calib;
pub mod json;
pub mod probes;
pub mod report;
pub mod service;
pub mod sim;
pub mod sys;
pub mod trace;
pub mod workload;

/// The workload called `name`, drawing its inputs from `seed`.
pub fn workload(name: &str, seed: u64) -> Option<Box<dyn workload::Workload>> {
    Some(match name {
        "service_saturate" => Box::new(service::ServiceSaturate::new(seed)),
        "warehouse_batch" => Box::new(batch::BatchWorkload::warehouse(seed)),
        "dense_batch" => Box::new(batch::BatchWorkload::dense(seed)),
        "sim_sweep" => Box::new(sim::SimSweep::new(seed)),
        _ => return None,
    })
}
