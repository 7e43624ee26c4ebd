//! Fig. 10 — execution time of the NetPack placement algorithm.
//!
//! Measures wall-clock time to place batches of jobs into clusters of
//! increasing size (placement only — no simulation), reproducing the two
//! paper claims: total time grows linearly with the job count at fixed
//! cluster size, and per-job time grows with cluster size
//! (`3.25e-4 s` at 100 servers to `1.36e-2 s` at 10K in the paper).
//! Each cell is timed once — enough for the two shapes; the measured
//! number for the 10 000-server × 400-job cell is the `dense_batch`
//! workload of `benchmark/run.sh`.
//!
//! The placer's perf counters, aggregated over every cell, are printed
//! afterwards so the time can be attributed to its phases —
//! `ps_candidates_scored` / `ps_rack_servers_skipped` for PS scoring,
//! `waterfill_rounds` / `waterfill_link_visits` for Algorithm 1.
//!
//! Knob: `NETPACK_SMOKE=1` runs one dense cell instead (16 racks x 64
//! servers, 200 jobs: many servers per rack, many contending jobs) through
//! [`placement_smoke`], so `scripts/check.sh` holds the per-class PS
//! scoring and the live-link water-fill rounds to the literal algorithm,
//! and pins the three PS-scoring counters of that cell: evaluations, the
//! plan-rack servers those stood in for, and plans ruled out by their score
//! ceiling. No change of mechanism may move them. After the digest it
//! prints the server-index classes that cell renamed in place (`index
//! renames: N`, asserted above 0), which `check.sh`'s release-vs-debug diff
//! pins while the debug build audits the index after every refresh. No
//! pool runs dry in that cell, so the smoke then places the same batch on
//! the same cluster with 400 Gbps of PAT a rack, where pools do, and
//! prints the water-fill class splits of that placement (`class splits:
//! N`, asserted above 0); `check.sh`'s release-vs-debug diff pins the
//! count.

use netpack_bench::{emit_table, placement_smoke, quick};
use netpack_metrics::{Stopwatch, TextTable};
use netpack_placement::{NetPackPlacer, Placer};
use netpack_topology::{Cluster, ClusterSpec};
use netpack_workload::xorshift_batch;

fn main() {
    if netpack_bench::smoke() {
        let cluster = Cluster::new(ClusterSpec {
            racks: 16,
            servers_per_rack: 64,
            ..ClusterSpec::paper_default()
        });
        let batch = xorshift_batch(200, 32, 7);
        let perf = placement_smoke("fig10 dense", &cluster, &batch);
        let counted = ["ps_candidates_scored", "ps_rack_servers_skipped", "ps_plans_ruled_out"]
            .map(|name| perf.counter(name));
        assert_eq!(
            counted,
            [13_027, 18_057, 1_161],
            "[evaluations, rack servers skipped, plans ruled out]"
        );
        let renames = perf.counter("index_renamed");
        assert!(renames > 0, "no server-index class was renamed");
        println!("index renames: {renames}");
        let starved = Cluster::new(ClusterSpec {
            pat_gbps: 400.0,
            ..cluster.spec().clone()
        });
        let mut placer = NetPackPlacer::default();
        placer.place_batch(&starved, &[], &batch);
        let count = |name| placer.perf().counter(name);
        assert_eq!(count("waterfill_unconverged"), 0, "a water-fill solve hit its round bound");
        assert!(count("waterfill_class_splits") > 0, "no refinable class split at a PAT flip");
        println!("class splits: {}", count("waterfill_class_splits"));
        return;
    }
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
            let b = xorshift_batch(jobs, 32, 7);
            let mut placer = NetPackPlacer::default();
            let start = Stopwatch::start();
            let outcome = placer.place_batch(&cluster, &[], &b);
            let elapsed = start.elapsed().as_secs_f64();
            let placed = outcome.placed.len().max(1);
            table.row(vec![
                servers.to_string(),
                jobs.to_string(),
                format!("{elapsed:.3}"),
                format!("{:.2e}", elapsed / placed as f64),
            ]);
            perf.merge(placer.perf());
        }
    }
    emit_table("fig10_placement_time", &table);
    println!("perf counters (all cells):");
    println!("{}", perf.to_table().render());
    println!("paper: 4K jobs placed within 1 minute on 100-10K servers; per-job time");
    println!("grows linearly with cluster size (3.25e-4 s at 100 to 1.36e-2 s at 10K).");
}
