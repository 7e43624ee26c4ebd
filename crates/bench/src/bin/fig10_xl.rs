//! fig10_xl — warehouse-scale extension of Fig. 10: place a 100-job batch
//! on a 50K-server three-tier fat-tree (32 pods x 49 racks x 32 servers x
//! 4 GPUs = 50 176 servers) and record the wall-clock.
//!
//! This is the acceptance cell for the warehouse-scale placement path
//! (DESIGN.md §3.11): the batch must finish in under a second on a single
//! socket. The printed wall clock is one shot; the measured number is the
//! `warehouse_batch` workload of `benchmark/run.sh`, which places this
//! same batch family.
//!
//! Knob: `NETPACK_SMOKE=1` shrinks to a 160-server tree / 30 jobs and runs
//! [`placement_smoke`]: production must equal the literal algorithm, and
//! only a deterministic placement digest prints, then `warm pushes: N`,
//! the pushes the estimator absorbed without a solve (asserted above 0),
//! so `scripts/check.sh` can byte-diff the stdout of a release and a debug
//! build and pin both.

use netpack_bench::{emit_table, placement_smoke};
use netpack_metrics::{Stopwatch, TextTable};
use netpack_placement::{NetPackPlacer, Placer};
use netpack_topology::{Cluster, ClusterSpec};
use netpack_workload::xorshift_batch;

fn main() {
    let smoke = netpack_bench::smoke();
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
    let b = xorshift_batch(jobs, 32, 7);

    let cluster = Cluster::new(spec);
    if smoke {
        let perf = placement_smoke("fig10_xl", &cluster, &b);
        let warm = perf.counter("waterfill_warm_pushes");
        assert!(warm > 0, "no push was absorbed into a one-round component");
        println!("warm pushes: {warm}");
        return;
    }
    let mut placer = NetPackPlacer::default();

    println!("fig10_xl — 100-job batch on a {servers}-server three-tier fat-tree\n");
    let start = Stopwatch::start();
    let outcome = placer.place_batch(&cluster, &[], &b);
    let elapsed = start.elapsed().as_secs_f64();
    let placed = outcome.placed.len().max(1);
    let mut table = TextTable::new(vec!["total (s)", "per-job (s)", "placed", "deferred"]);
    table.row(vec![
        format!("{elapsed:.3}"),
        format!("{:.2e}", elapsed / placed as f64),
        outcome.placed.len().to_string(),
        outcome.deferred.len().to_string(),
    ]);
    println!("perf counters:");
    println!("{}", placer.take_perf().to_table().render());
    emit_table("fig10_xl", &table);
    println!("paper scale context: Fig. 10 stops at 10K servers; this cell extends the");
    println!("claim to a 50K-server warehouse.");
}
