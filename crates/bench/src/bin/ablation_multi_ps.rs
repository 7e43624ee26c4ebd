//! Extension ablation — gradient sharding over multiple parameter servers.
//!
//! §4.1 notes that AllReduce with multiple PSes composes one-PS
//! AllReduces. Algorithm 2 places a single PS; this extension shards the
//! gradient over the k best-scoring PS locations. Sharding relieves the
//! PS-side fan-in bottleneck (biggest when INA is scarce) but adds flows
//! everywhere else — this bench quantifies the trade.

use netpack_bench::{repeats, replay_with, standard_jobs};
use netpack_flowsim::SimConfig;
use netpack_metrics::{Summary, TextTable};
use netpack_placement::{NetPackConfig, NetPackPlacer};
use netpack_topology::ClusterSpec;
use netpack_workload::TraceKind;

fn run(spec: &ClusterSpec, pses: usize, jobs: usize) -> Summary {
    let config = NetPackConfig {
        pses_per_job: pses,
        ..NetPackConfig::default()
    };
    replay_with(
        spec,
        TraceKind::Real,
        jobs,
        9000,
        || Box::new(NetPackPlacer::new(config.clone())),
        SimConfig::default(),
    )
    .jct
}

fn main() {
    println!(
        "Ablation — PSes per job (gradient shards), {} repetitions\n",
        repeats()
    );
    let mut table = TextTable::new(vec![
        "PAT (Gbps)",
        "1 PS JCT (s)",
        "2 PS JCT (s)",
        "4 PS JCT (s)",
    ]);
    for pat in [1000.0, 100.0, 0.0] {
        let spec = ClusterSpec {
            racks: 2,
            servers_per_rack: 8,
            pat_gbps: pat,
            ..ClusterSpec::paper_default()
        };
        let jobs = standard_jobs(&spec);
        let row: Vec<Summary> = [1, 2, 4].iter().map(|&k| run(&spec, k, jobs)).collect();
        table.row(vec![
            format!("{pat:.0}"),
            format!("{:.1} ± {:.1}", row[0].mean, row[0].std),
            format!("{:.1} ± {:.1}", row[1].mean, row[1].std),
            format!("{:.1} ± {:.1}", row[2].mean, row[2].std),
        ]);
    }
    println!("{table}");
    println!("sharding should help most when INA cannot absorb the fan-in (low PAT)");
    println!("and matter least when the switch aggregates everything anyway.");
}
