//! §5.1 — the MIP is intractable; the DP is near-optimal.
//!
//! The paper reports Gurobi needing over four hours on large instances and
//! motivates the DP heuristic. We reproduce both halves on our exact
//! reference solver: its runtime explodes combinatorially with instance
//! size, while NetPack's DP lands within a few percent of the optimum on
//! every instance small enough to enumerate.
//!
//! The exact solver is the branch-and-bound [`ExactPlacer`]. The main
//! table prints only objectives and gaps — never times or evaluation
//! counts — so its bytes are reproducible. Under `NETPACK_SMOKE=1` the one
//! smoke instance is also solved by the exhaustive reference
//! ([`reference::place_exact`]) and the binary asserts identical
//! placements, a bit-identical objective and strictly fewer evaluations,
//! and prints the branch-and-bound's work counts, which depend on the
//! instance alone; otherwise a second diagnostics table compares the two
//! searches per row, with the reference capped on the instances it cannot
//! finish (`table_mip_vs_dp_diag.csv` under `NETPACK_CSV_DIR`). Its wall
//! clocks are single shots that show the blow-up, not measurements to
//! compare across commits.

use netpack_bench::emit_table;
use netpack_metrics::Stopwatch;
use netpack_metrics::TextTable;
use netpack_placement::{batch_comm_time_s, reference, ExactPlacer, NetPackPlacer, Placer};
use netpack_topology::{Cluster, ClusterSpec, JobId};
use netpack_workload::{Job, ModelKind};

/// Evaluation budget of both searches on rows they can finish.
const BUDGET: u64 = 50_000_000;

/// Evaluation cap for the exhaustive reference on rows it cannot fully
/// enumerate in reasonable time; its timing is then a lower bound.
const SCRATCH_CAP: u64 = 2_000_000;

struct Instance {
    servers: usize,
    gpus: usize,
    sizes: Vec<usize>,
    /// Whether the exhaustive reference can fully enumerate this row.
    scratch_full: bool,
}

fn instances(smoke: bool) -> Vec<Instance> {
    let mk = |servers, gpus, sizes: Vec<usize>, scratch_full| Instance {
        servers,
        gpus,
        sizes,
        scratch_full,
    };
    if smoke {
        return vec![mk(4, 2, vec![3, 3], true)];
    }
    vec![
        mk(2, 2, vec![3], true),
        mk(3, 2, vec![2, 3], true),
        mk(4, 2, vec![3, 3], true),
        mk(4, 2, vec![2, 2, 3], true),
        mk(5, 2, vec![3, 3, 2], true),
        mk(6, 2, vec![3, 3, 3], true),
        // Beyond here only the branch-and-bound finishes; the reference
        // is capped at SCRATCH_CAP evaluations for timing.
        mk(8, 2, vec![3, 3, 3], false),
        mk(8, 2, vec![2, 2, 3, 3], false),
        mk(10, 2, vec![3, 3, 3], false),
        mk(10, 2, vec![2, 3, 3, 4], false),
    ]
}

fn main() {
    let smoke = netpack_bench::smoke();
    println!("§5.1 — exact search vs NetPack DP (objective: total comm time per iteration)\n");
    let mut table = TextTable::new(vec!["servers x gpus", "jobs", "exact obj", "dp obj", "gap"]);
    let mut diag = TextTable::new(vec![
        "servers x gpus",
        "jobs",
        "bnb (s)",
        "bnb evals",
        "nodes",
        "pruned",
        "scratch (s)",
        "scratch evals",
        "speedup",
    ]);
    for inst in instances(smoke) {
        let spec = ClusterSpec {
            racks: 1,
            servers_per_rack: inst.servers,
            gpus_per_server: inst.gpus,
            pat_gbps: 50.0,
            ..ClusterSpec::paper_default()
        };
        let cluster = Cluster::new(spec);
        let batch: Vec<Job> = inst
            .sizes
            .iter()
            .enumerate()
            .map(|(i, &g)| Job::builder(JobId(i as u64), ModelKind::Vgg16, g).build())
            .collect();
        let label = format!("{}x{}", inst.servers, inst.gpus);
        let jobs_label = inst
            .sizes
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("+");

        let mut exact = ExactPlacer::new(BUDGET);
        let t0 = Stopwatch::start();
        let exact_outcome = exact.place_batch(&cluster, &[], &batch);
        let exact_time = t0.elapsed().as_secs_f64();
        let exact_obj = batch_comm_time_s(&cluster, &[], &exact_outcome.placed);

        let dp_outcome = NetPackPlacer::default().place_batch(&cluster, &[], &batch);
        let dp_obj = batch_comm_time_s(&cluster, &[], &dp_outcome.placed);

        let gap = if exact_obj > 0.0 {
            format!("{:+.1}%", 100.0 * (dp_obj - exact_obj) / exact_obj)
        } else if dp_obj <= 1e-12 {
            "+0.0%".to_string()
        } else {
            "inf".to_string()
        };
        table.row(vec![
            label.clone(),
            jobs_label.clone(),
            format!("{exact_obj:.4}"),
            format!("{dp_obj:.4}"),
            gap,
        ]);

        // The exhaustive reference: the smoke holds the branch-and-bound
        // to it, the full run times it for the diagnostics table.
        let budget = if inst.scratch_full { BUDGET } else { SCRATCH_CAP };
        let t0 = Stopwatch::start();
        let (scratch_best, scratch_evals) =
            reference::place_exact(&cluster, &[], &batch, false, budget);
        let scratch_time = t0.elapsed().as_secs_f64();
        if smoke {
            let (scratch_obj, scratch_placed) = scratch_best.expect("the smoke instance is feasible");
            assert_eq!(exact_outcome.placed, scratch_placed, "bnb diverged from the reference");
            assert_eq!(exact_obj.to_bits(), scratch_obj.to_bits(), "objective not bit-identical");
            assert!(exact.evaluations() < scratch_evals, "bnb did not prune");
            println!(
                "{label} {jobs_label} bnb evals / nodes / pruned: {} / {} / {}",
                exact.evaluations(),
                exact.perf().counter("exact_nodes"),
                exact.perf().counter("exact_pruned_subtrees"),
            );
            continue;
        }
        let capped = scratch_evals >= budget;
        let prefix = if capped { ">" } else { "" };
        let speedup = if exact_time > 0.0 {
            format!("{prefix}{:.1}x", scratch_time / exact_time)
        } else {
            "-".to_string()
        };
        diag.row(vec![
            label,
            jobs_label,
            format!("{exact_time:.3}"),
            exact.evaluations().to_string(),
            exact.perf().counter("exact_nodes").to_string(),
            exact.perf().counter("exact_pruned_subtrees").to_string(),
            format!("{prefix}{scratch_time:.3}"),
            scratch_evals.to_string(),
            speedup,
        ]);
    }
    emit_table("table_mip_vs_dp", &table);
    if !smoke {
        println!(
            "branch-and-bound vs exhaustive scratch reference \
             (scratch capped at {SCRATCH_CAP} evals on the large rows):\n"
        );
        emit_table("table_mip_vs_dp_diag", &diag);
    }
    println!("paper: Gurobi takes >4 hours on 100K jobs / 1K racks; NetPack's DP runs in");
    println!("polynomial time and (here) stays within a few percent of the true optimum.");
}
