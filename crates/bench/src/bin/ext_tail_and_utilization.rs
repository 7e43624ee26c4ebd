//! Extension — tail latency and cluster utilization by placer.
//!
//! The paper reports mean JCT; operators also watch the p95 tail and the
//! cluster's GPU utilization. This bench prints all three for the roster
//! under the standard loaded Real trace: a placer that wins the mean by
//! starving stragglers would show up here.
//!
//! Every (placer, repetition) cell is an independent simulation, fanned
//! out via [`sweep`] with a deterministic ordered merge.

use netpack_bench::{
    emit_table, named_placer, repeats, replay_cell, roster_names, standard_jobs, sweep,
};
use netpack_flowsim::SimConfig;
use netpack_metrics::{Summary, TextTable};
use netpack_topology::ClusterSpec;
use netpack_workload::TraceKind;

fn main() {
    let spec = ClusterSpec {
        racks: 4,
        servers_per_rack: 8,
        ..ClusterSpec::paper_default()
    };
    let jobs = standard_jobs(&spec);
    let total_gpus = spec.total_gpus();
    println!(
        "Extension — mean vs p95 JCT and GPU utilization ({} jobs, {} reps)\n",
        jobs,
        repeats()
    );
    let names = roster_names();
    let results = sweep(&names, repeats(), 9900, |&name, seed| {
        let placer = named_placer(name);
        let result = replay_cell(&spec, TraceKind::Real, jobs, seed, placer, SimConfig::default());
        (
            result.average_jct_s().expect("jobs finished"),
            result.p95_jct_s().expect("jobs finished"),
            result.gpu_utilization(total_gpus).expect("jobs ran"),
        )
    });

    let mut table = TextTable::new(vec![
        "placer",
        "mean JCT (s)",
        "p95 JCT (s)",
        "p95 / mean",
        "GPU util",
    ]);
    for (name, reps) in names.iter().zip(&results) {
        let mean_of = |metric: fn(&(f64, f64, f64)) -> f64| {
            Summary::of(&reps.iter().map(metric).collect::<Vec<_>>()).mean
        };
        let mean = mean_of(|r| r.0);
        let p95 = mean_of(|r| r.1);
        let util = mean_of(|r| r.2);
        table.row(vec![
            name.to_string(),
            format!("{mean:.1}"),
            format!("{p95:.1}"),
            format!("{:.2}", p95 / mean),
            format!("{util:.3}"),
        ]);
    }
    emit_table("ext_tail", &table);
    println!("NetPack should win both the mean and the p95 tail. Utilization here is");
    println!("GPU *occupancy*: jobs hold their GPUs while communicating, so faster");
    println!("communication completes the same work with LOWER occupancy — NetPack's");
    println!("smaller number is headroom, not idleness.");
}
