//! Ablation — the DP's two-dimensional `(f, g)` knapsack weight.
//!
//! NetPack tracks the per-plan maximum flow count `f` precisely so the PS
//! step can punish hot-spot plans. Collapsing the dimension (`fs_max: 0`) turns the DP
//! into a plain GPU knapsack; this bench quantifies what that costs.

use netpack_bench::{netpack_jct_sweep, repeats};
use netpack_flowsim::SimConfig;
use netpack_metrics::TextTable;
use netpack_placement::NetPackConfig;
use netpack_topology::ClusterSpec;

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
    let clusters = [
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
    ];
    let points: Vec<_> = clusters
        .iter()
        .flat_map(|(_, spec)| {
            [NetPackConfig::default().fs_max, 0].map(|fs_max| {
                let config = NetPackConfig {
                    fs_max,
                    ..NetPackConfig::default()
                };
                (spec.clone(), config, SimConfig::default())
            })
        })
        .collect();
    let jct = netpack_jct_sweep(&points, 8000);
    for ((label, _), pair) in clusters.iter().zip(jct.chunks(2)) {
        let (with, without) = (pair[0], pair[1]);
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
