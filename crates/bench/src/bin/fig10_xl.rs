//! fig10_xl — warehouse-scale extension of Fig. 10: place a 100-job batch
//! on a 50K-server three-tier fat-tree (32 pods x 49 racks x 32 servers x
//! 4 GPUs = 50 176 servers) and record the wall-clock.
//!
//! This is the acceptance benchmark for the warehouse-scale placement path
//! (DESIGN.md §3.11): the batch must finish in under a second on a single
//! socket. The row lands in the JSON ledger (`bench: "fig10_xl"`) when
//! `NETPACK_BENCH_JSON` is set, via `scripts/bench.sh`.
//!
//! Knob: `NETPACK_SMOKE=1` shrinks to a 160-server tree / 30 jobs, asserts
//! that production's outcome equals the literal algorithm's
//! (`reference::place_batch`), and prints only a deterministic placement
//! digest (no timings, no counters), so `scripts/check.sh` can byte-diff
//! the stdout of runs at different worker counts.

use netpack_bench::{emit_bench_row, BenchRow};
use netpack_metrics::{Stopwatch, TextTable};
use netpack_placement::{
    batch_comm_time_s, reference, BatchOutcome, NetPackConfig, NetPackPlacer, Placer,
};
use netpack_topology::{Cluster, ClusterSpec, JobId};
use netpack_workload::{Job, ModelKind};

/// Deterministic mixed batch of spanning jobs (same generator as Fig. 10).
fn batch(jobs: usize, max_gpus: usize, seed: u64) -> Vec<Job> {
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

/// Stable outcome fingerprint: the smoke digest, and what the smoke
/// compares against the reference.
fn digest(outcome: &BatchOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "placed={} deferred={}\n",
        outcome.placed.len(),
        outcome.deferred.len()
    ));
    for (job, p) in &outcome.placed {
        let workers: Vec<String> = p
            .workers()
            .iter()
            .map(|&(s, w)| format!("{}x{w}", s.0))
            .collect();
        let pses: Vec<String> = p.pses().iter().map(|s| s.0.to_string()).collect();
        out.push_str(&format!(
            "job {}: workers=[{}] ps=[{}] ina={}\n",
            job.id.0,
            workers.join(","),
            pses.join(","),
            p.ina_enabled()
        ));
    }
    let deferred: Vec<String> = outcome.deferred.iter().map(|j| j.id.0.to_string()).collect();
    out.push_str(&format!("deferred=[{}]\n", deferred.join(",")));
    out
}

fn main() {
    let smoke = std::env::var("NETPACK_SMOKE").is_ok_and(|v| v != "0");
    // 32 pods x 49 racks x 32 servers x 4 GPUs = 50 176 servers; the smoke
    // tree keeps three tiers (4 pods x 5 racks x 8 servers) at 160 servers.
    let (pods, racks_per_pod, servers_per_rack, jobs) =
        if smoke { (4, 5, 8, 30) } else { (32, 49, 32, 100) };
    let spec = ClusterSpec {
        racks: pods * racks_per_pod,
        servers_per_rack,
        gpus_per_server: 4,
        racks_per_pod: Some(racks_per_pod),
        ..ClusterSpec::paper_default()
    };
    let servers = spec.num_servers();
    let b = batch(jobs, 32, 7);

    let cluster = Cluster::new(spec);
    let mut placer = NetPackPlacer::default();

    if smoke {
        // Digest only — `scripts/check.sh` byte-diffs this output between
        // runs at different worker counts, so nothing time-dependent may
        // print.
        let outcome = placer.place_batch(&cluster, &[], &b);
        let oracle = reference::place_batch(&NetPackConfig::default(), &cluster, &[], &b);
        assert_eq!(
            digest(&outcome),
            digest(&oracle),
            "production diverged from the literal algorithm"
        );
        let objective = batch_comm_time_s(&cluster, &[], &outcome.placed);
        println!("fig10_xl smoke digest (servers={servers}, jobs={jobs})");
        print!("{}", digest(&outcome));
        println!("objective_bits={:#018x}", objective.to_bits());
        return;
    }

    println!("fig10_xl — 100-job batch on a {servers}-server three-tier fat-tree\n");
    let start = Stopwatch::start();
    let outcome = placer.place_batch(&cluster, &[], &b);
    let elapsed = start.elapsed().as_secs_f64();
    let placed = outcome.placed.len().max(1);
    emit_bench_row(&BenchRow {
        bench: "fig10_xl",
        instance: format!("servers={servers}/jobs={jobs}"),
        // The ledger key this cell has always had; earlier ledgers hold a
        // `struct` row beside it.
        mode: "flat".to_string(),
        wall_s: elapsed,
        threads: netpack_bench::bench_threads(),
        evals: placer.perf().counter("plans_considered"),
        nodes: placer.perf().counter("dp_candidates_offered"),
        pruned: placer
            .perf()
            .counter("dp_candidates_offered")
            .saturating_sub(placer.perf().counter("dp_candidates_kept")),
    });
    let mut table = TextTable::new(vec!["total (s)", "per-job (s)", "placed", "deferred"]);
    table.row(vec![
        format!("{elapsed:.3}"),
        format!("{:.2e}", elapsed / placed as f64),
        outcome.placed.len().to_string(),
        outcome.deferred.len().to_string(),
    ]);
    println!("perf counters:");
    println!("{}", placer.take_perf().to_table().render());
    println!("{table}");
    println!("paper scale context: Fig. 10 stops at 10K servers; this cell extends the");
    println!("claim to a 50K-server warehouse.");
}
