//! Ablation — step 4's selective INA enabling.
//!
//! Compares the paper's aggregation-efficiency-ordered selective policy
//! against enabling INA for every job and disabling it entirely, on a
//! PAT-scarce cluster where the choice matters (the Fig. 12 discussion
//! credits selective enabling for part of NetPack's oversubscribed wins).

use netpack_bench::{netpack_jct_sweep, repeats};
use netpack_flowsim::SimConfig;
use netpack_metrics::TextTable;
use netpack_placement::{InaPolicy, NetPackConfig};
use netpack_topology::ClusterSpec;

fn main() {
    println!(
        "Ablation — INA-enable policy ({} repetitions)\n",
        repeats()
    );
    let mut table = TextTable::new(vec![
        "PAT (Gbps)",
        "Selective JCT (s)",
        "AlwaysOn JCT (s)",
        "AlwaysOff JCT (s)",
    ]);
    let pats = [400.0, 100.0, 25.0];
    let policies = [InaPolicy::Selective, InaPolicy::AlwaysOn, InaPolicy::AlwaysOff];
    let points: Vec<_> = pats
        .iter()
        .flat_map(|&pat| {
            let spec = ClusterSpec {
                racks: 2,
                servers_per_rack: 8,
                pat_gbps: pat,
                oversubscription: 4.0,
                ..ClusterSpec::paper_default()
            };
            policies.map(|ina_policy| {
                let config = NetPackConfig { ina_policy, ..NetPackConfig::default() };
                (spec.clone(), config, SimConfig::default())
            })
        })
        .collect();
    for (pat, row) in pats.iter().zip(netpack_jct_sweep(&points, 7000).chunks(3)) {
        let (selective, on, off) = (row[0], row[1], row[2]);
        table.row(vec![
            format!("{pat:.0}"),
            format!("{:.1} ± {:.1}", selective.mean, selective.std),
            format!("{:.1} ± {:.1}", on.mean, on.std),
            format!("{:.1} ± {:.1}", off.mean, off.std),
        ]);
    }
    println!("{table}");
    println!("selective should match AlwaysOn when PAT is plentiful and beat both");
    println!("when switch memory is the scarce resource.");
}
