//! Fig. 13 — joint optimization vs the naive combination `Comb` (§6.4).
//!
//! `Comb` considers the same three resources as NetPack (GPUs, switch
//! memory, link bandwidth) but *separately*: servers are sorted
//! lexicographically by each resource in turn. NetPack's joint valuation
//! should beat it on all three workloads.

use netpack_bench::{named_placer, repeats, replay_cell, standard_jobs, sweep, testbed_spec};
use netpack_flowsim::SimConfig;
use netpack_metrics::{Summary, TextTable};
use netpack_topology::ClusterSpec;
use netpack_workload::TraceKind;

fn main() {
    println!(
        "Fig. 13 — NetPack vs naive combination ({} repetitions)\n",
        repeats()
    );
    let mut table = TextTable::new(vec![
        "cluster",
        "trace",
        "NetPack JCT (s)",
        "Comb JCT (s)",
        "Comb / NetPack",
    ]);
    let multi_rack = ClusterSpec {
        racks: 4,
        servers_per_rack: 8,
        oversubscription: 4.0,
        ..ClusterSpec::paper_default()
    };
    let clusters = [("testbed", testbed_spec()), ("4-rack 4:1", multi_rack)];
    // One point per (cluster, trace, placer), NetPack before Comb.
    let points: Vec<_> = clusters
        .iter()
        .flat_map(|(label, spec)| TraceKind::ALL.map(|kind| (label, spec, kind)))
        .flat_map(|(label, spec, kind)| ["NetPack", "Comb"].map(|name| (label, spec, kind, name)))
        .collect();
    let results = sweep(&points, repeats(), 1000, |&(_, spec, kind, name), seed| {
        let (jobs, placer) = (standard_jobs(spec), named_placer(name));
        let result = replay_cell(spec, kind, jobs, seed, placer, SimConfig::default());
        result.average_jct_s().expect("jobs finished")
    });
    for (pair, jcts) in points.chunks(2).zip(results.chunks(2)) {
        let (label, _, kind, _) = pair[0];
        let (np, comb) = (Summary::of(&jcts[0]).mean, Summary::of(&jcts[1]).mean);
        table.row(vec![
            label.to_string(),
            kind.label().to_string(),
            format!("{np:.1}"),
            format!("{comb:.1}"),
            format!("{:.3}x", comb / np),
        ]);
    }
    println!("{table}");
    println!("paper: NetPack outperforms Comb by up to 63% JCT reduction on all workloads.");
}
