//! Ablation — the Equation-1 hot-spot term.
//!
//! Equation 1 as printed *subtracts* `C/f_max`, which rewards hot-spot
//! plans; DESIGN.md reads that as a sign typo and scores the bottleneck
//! share as a reward instead. This bench compares the two variants (plus
//! the flat-network/oversubscribed settings where the term matters most).

use netpack_bench::{repeats, replay_with, standard_jobs};
use netpack_flowsim::SimConfig;
use netpack_metrics::{Summary, TextTable};
use netpack_placement::{HotSpotTerm, NetPackConfig, NetPackPlacer};
use netpack_topology::ClusterSpec;
use netpack_workload::TraceKind;

fn run(spec: &ClusterSpec, hotspot: HotSpotTerm, jobs: usize) -> Summary {
    let config = NetPackConfig {
        hotspot,
        ..NetPackConfig::default()
    };
    replay_with(
        spec,
        TraceKind::Real,
        jobs,
        6000,
        || Box::new(NetPackPlacer::new(config.clone())),
        SimConfig::default(),
    )
    .jct
}

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
    for (label, spec) in [
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
    ] {
        let jobs = standard_jobs(&spec);
        let reward = run(&spec, HotSpotTerm::RewardBottleneckShare, jobs);
        let literal = run(&spec, HotSpotTerm::PaperLiteral, jobs);
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
