//! Ablation — step 4's selective INA enabling.
//!
//! Compares the paper's aggregation-efficiency-ordered selective policy
//! against enabling INA for every job and disabling it entirely, on a
//! PAT-scarce cluster where the choice matters (the Fig. 12 discussion
//! credits selective enabling for part of NetPack's oversubscribed wins).

use netpack_bench::{repeats, replay_with, standard_jobs};
use netpack_flowsim::SimConfig;
use netpack_metrics::{Summary, TextTable};
use netpack_placement::{InaPolicy, NetPackConfig, NetPackPlacer};
use netpack_topology::ClusterSpec;
use netpack_workload::TraceKind;

fn run(spec: &ClusterSpec, policy: InaPolicy, jobs: usize) -> Summary {
    let config = NetPackConfig {
        ina_policy: policy,
        ..NetPackConfig::default()
    };
    replay_with(
        spec,
        TraceKind::Real,
        jobs,
        7000,
        || Box::new(NetPackPlacer::new(config.clone())),
        SimConfig::default(),
    )
    .jct
}

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
    for pat in [400.0, 100.0, 25.0] {
        let spec = ClusterSpec {
            racks: 2,
            servers_per_rack: 8,
            pat_gbps: pat,
            oversubscription: 4.0,
            ..ClusterSpec::paper_default()
        };
        let jobs = standard_jobs(&spec);
        let selective = run(&spec, InaPolicy::Selective, jobs);
        let on = run(&spec, InaPolicy::AlwaysOn, jobs);
        let off = run(&spec, InaPolicy::AlwaysOff, jobs);
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
