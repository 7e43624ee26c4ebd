//! Ablation — the DP's two-dimensional `(f, g)` knapsack weight.
//!
//! NetPack tracks the per-plan maximum flow count `f` precisely so the PS
//! step can punish hot-spot plans. Collapsing the dimension turns the DP
//! into a plain GPU knapsack; this bench quantifies what that costs.

use netpack_bench::{repeats, replay_with, standard_jobs};
use netpack_flowsim::SimConfig;
use netpack_metrics::{Summary, TextTable};
use netpack_placement::{NetPackConfig, NetPackPlacer};
use netpack_topology::ClusterSpec;
use netpack_workload::TraceKind;

fn run(spec: &ClusterSpec, flow_dimension: bool, jobs: usize) -> Summary {
    let config = NetPackConfig {
        flow_dimension,
        ..NetPackConfig::default()
    };
    replay_with(
        spec,
        TraceKind::Real,
        jobs,
        8000,
        || Box::new(NetPackPlacer::new(config.clone())),
        SimConfig::default(),
    )
    .jct
}

fn main() {
    println!(
        "Ablation — two-dimensional DP weight ({} repetitions)\n",
        repeats()
    );
    let mut table = TextTable::new(vec![
        "cluster",
        "with f-dim JCT (s)",
        "without JCT (s)",
        "without / with",
    ]);
    for (label, spec) in [
        (
            "testbed 5x2",
            ClusterSpec {
                pat_gbps: 200.0,
                ..ClusterSpec::paper_testbed()
            },
        ),
        (
            "sim 4x8x4",
            ClusterSpec {
                racks: 4,
                servers_per_rack: 8,
                ..ClusterSpec::paper_default()
            },
        ),
    ] {
        let jobs = standard_jobs(&spec);
        let with = run(&spec, true, jobs);
        let without = run(&spec, false, jobs);
        table.row(vec![
            label.to_string(),
            format!("{:.1} ± {:.1}", with.mean, with.std),
            format!("{:.1} ± {:.1}", without.mean, without.std),
            format!("{:.3}x", without.mean / with.mean),
        ]);
    }
    println!("{table}");
    println!("a ratio above 1.0 means the f-dimension earns its memory cost.");
}
