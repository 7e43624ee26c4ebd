//! Ablation — the Equation-1 hot-spot term.
//!
//! Equation 1 as printed *subtracts* `C/f_max`, which rewards hot-spot
//! plans; DESIGN.md reads that as a sign typo and scores the bottleneck
//! share as a reward instead. This bench compares the two variants (plus
//! the flat-network/oversubscribed settings where the term matters most).

use netpack_bench::{netpack_jct_sweep, repeats};
use netpack_flowsim::SimConfig;
use netpack_metrics::TextTable;
use netpack_placement::{HotSpotTerm, NetPackConfig};
use netpack_topology::ClusterSpec;

fn main() {
    println!(
        "Ablation — Eq. 1 hot-spot term sign ({} repetitions)\n",
        repeats()
    );
    let mut table = TextTable::new(vec![
        "cluster",
        "reward JCT (s)",
        "literal JCT (s)",
        "literal / reward",
    ]);
    let clusters = [
        (
            "flat 4x8",
            ClusterSpec {
                racks: 4,
                servers_per_rack: 8,
                ..ClusterSpec::paper_default()
            },
        ),
        (
            "oversub 10:1",
            ClusterSpec {
                racks: 4,
                servers_per_rack: 8,
                oversubscription: 10.0,
                ..ClusterSpec::paper_default()
            },
        ),
    ];
    let terms = [
        HotSpotTerm::RewardBottleneckShare,
        HotSpotTerm::PaperLiteral,
    ];
    let points: Vec<_> = clusters
        .iter()
        .flat_map(|(_, spec)| {
            terms.map(|hotspot| {
                let config = NetPackConfig {
                    hotspot,
                    ..NetPackConfig::default()
                };
                (spec.clone(), config, SimConfig::default())
            })
        })
        .collect();
    let jct = netpack_jct_sweep(&points, 6000);
    for ((label, _), pair) in clusters.iter().zip(jct.chunks(2)) {
        let (reward, literal) = (pair[0], pair[1]);
        table.row(vec![
            label.to_string(),
            format!("{:.1} ± {:.1}", reward.mean, reward.std),
            format!("{:.1} ± {:.1}", literal.mean, literal.std),
            format!("{:.3}x", literal.mean / reward.mean),
        ]);
    }
    println!("{table}");
    println!("a ratio above 1.0 supports the typo reading (reward variant wins).");
}
