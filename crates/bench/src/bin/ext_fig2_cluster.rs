//! Extension — Fig. 2's claim at cluster scale.
//!
//! Fig. 2 compares statistical vs synchronous INA for one job behind one
//! switch. This extension asks the cluster-level question §2.2 implies:
//! replaying the same trace with the same placer, how much slower is a
//! cluster whose switches run naive synchronous partitions instead of a
//! statistical pool? (INAlloc-style re-partitioning would sit between the
//! two, at the cost of the central controller the paper argues against.)

use netpack_bench::{netpack_jct_sweep, repeats};
use netpack_flowsim::{InaMode, SimConfig};
use netpack_metrics::TextTable;
use netpack_placement::NetPackConfig;
use netpack_topology::ClusterSpec;

fn main() {
    println!(
        "Extension — statistical vs synchronous INA at cluster scale ({} reps)\n",
        repeats()
    );
    let mut table = TextTable::new(vec![
        "PAT (Gbps)",
        "statistical JCT (s)",
        "synchronous JCT (s)",
        "sync / stat",
    ]);
    let pats = [1000.0, 200.0, 50.0];
    let points: Vec<_> = pats
        .iter()
        .flat_map(|&pat| {
            let spec = ClusterSpec {
                racks: 2,
                servers_per_rack: 8,
                pat_gbps: pat,
                ..ClusterSpec::paper_default()
            };
            [InaMode::Statistical, InaMode::Synchronous].map(|ina_mode| {
                let config = SimConfig {
                    ina_mode,
                    ..SimConfig::default()
                };
                (spec.clone(), NetPackConfig::default(), config)
            })
        })
        .collect();
    for (pat, pair) in pats.iter().zip(netpack_jct_sweep(&points, 9500).chunks(2)) {
        let (stat, sync) = (pair[0], pair[1]);
        table.row(vec![
            format!("{pat:.0}"),
            format!("{:.1} ± {:.1}", stat.mean, stat.std),
            format!("{:.1} ± {:.1}", sync.mean, sync.std),
            format!("{:.3}x", sync.mean / stat.mean),
        ]);
    }
    println!("{table}");
    println!("finding: under the fluid model the modes tie at cluster scale — max-min");
    println!("sharing of a pool and equal static partitions hand out similar rates.");
    println!("statistical INA's real edge is packet-level (fallback instead of halting,");
    println!("per-RTT reuse across compute phases: Fig. 2 / Fig. 14b) plus needing no");
    println!("central reallocation controller (§2.2).");
}
