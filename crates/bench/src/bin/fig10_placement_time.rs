//! Fig. 10 — execution time of the NetPack placement algorithm.
//!
//! Measures wall-clock time to place batches of jobs into clusters of
//! increasing size (placement only — no simulation), reproducing the two
//! paper claims: total time grows linearly with the job count at fixed
//! cluster size, and per-job time grows with cluster size
//! (`3.25e-4 s` at 100 servers to `1.36e-2 s` at 10K in the paper).
//!
//! The placer's perf counters, aggregated over every cell, are printed
//! afterwards so the time can be attributed to its phases.

use netpack_bench::{emit_bench_row, quick, BenchRow};
use netpack_metrics::TextTable;
use netpack_placement::{NetPackPlacer, Placer};
use netpack_topology::{Cluster, ClusterSpec, JobId};
use netpack_workload::{Job, ModelKind};
use netpack_metrics::Stopwatch;

fn batch(jobs: usize, max_gpus: usize, seed: u64) -> Vec<Job> {
    // Deterministic mixed batch of spanning jobs.
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..jobs)
        .map(|i| {
            let gpus = (next() % max_gpus as u64).max(1) as usize;
            let model = ModelKind::ALL[(next() % 6) as usize];
            Job::builder(JobId(i as u64), model, gpus).build()
        })
        .collect()
}

fn main() {
    let sizes: Vec<usize> = if quick() {
        vec![100, 400]
    } else {
        vec![100, 1000, 4000, 10_000]
    };
    let job_counts: Vec<usize> = if quick() {
        vec![50, 100]
    } else {
        vec![200, 400, 800]
    };
    println!("Fig. 10 — NetPack placement algorithm execution time (placement only)\n");
    let mut table = TextTable::new(vec!["servers", "jobs", "total (s)", "per-job (s)"]);
    let mut perf = netpack_metrics::PerfCounters::new();
    for &servers in &sizes {
        let racks = 16.min(servers);
        let spec = ClusterSpec {
            racks,
            servers_per_rack: servers / racks,
            ..ClusterSpec::paper_default()
        };
        for &jobs in &job_counts {
            let cluster = Cluster::new(spec.clone());
            let b = batch(jobs, 32, 7);
            let mut placer = NetPackPlacer::default();
            let start = Stopwatch::start();
            let outcome = placer.place_batch(&cluster, &[], &b);
            let elapsed = start.elapsed().as_secs_f64();
            let placed = outcome.placed.len().max(1);
            emit_bench_row(&BenchRow {
                bench: "fig10_placement_time",
                instance: format!("servers={servers}/jobs={jobs}"),
                // The ledger key these cells have always had; earlier
                // ledgers hold a `sequential` row beside each.
                mode: "fast".to_string(),
                wall_s: elapsed,
                threads: netpack_bench::bench_threads(),
                evals: placer.perf().counter("plans_considered"),
                nodes: 0,
                pruned: 0,
            });
            table.row(vec![
                servers.to_string(),
                jobs.to_string(),
                format!("{elapsed:.3}"),
                format!("{:.2e}", elapsed / placed as f64),
            ]);
            perf.merge(placer.perf());
        }
    }
    println!("{table}");
    println!("perf counters (all cells):");
    println!("{}", perf.to_table().render());
    println!("paper: 4K jobs placed within 1 minute on 100-10K servers; per-job time");
    println!("grows linearly with cluster size (3.25e-4 s at 100 to 1.36e-2 s at 10K).");
}
