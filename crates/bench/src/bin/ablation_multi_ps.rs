//! Extension ablation — gradient sharding over multiple parameter servers.
//!
//! §4.1 notes that AllReduce with multiple PSes composes one-PS
//! AllReduces. Algorithm 2 places a single PS; this extension shards the
//! gradient over the k best-scoring PS locations. Sharding relieves the
//! PS-side fan-in bottleneck (biggest when INA is scarce) but adds flows
//! everywhere else — this bench quantifies the trade.

use netpack_bench::{netpack_jct_sweep, repeats};
use netpack_flowsim::SimConfig;
use netpack_metrics::TextTable;
use netpack_placement::NetPackConfig;
use netpack_topology::ClusterSpec;

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
    let pats = [1000.0, 100.0, 0.0];
    let points: Vec<_> = pats
        .iter()
        .flat_map(|&pat| {
            let spec = ClusterSpec {
                racks: 2,
                servers_per_rack: 8,
                pat_gbps: pat,
                ..ClusterSpec::paper_default()
            };
            [1, 2, 4].map(|pses_per_job| {
                let config = NetPackConfig {
                    pses_per_job,
                    ..NetPackConfig::default()
                };
                (spec.clone(), config, SimConfig::default())
            })
        })
        .collect();
    for (pat, row) in pats.iter().zip(netpack_jct_sweep(&points, 9000).chunks(3)) {
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
