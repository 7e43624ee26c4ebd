//! Fig. 12 — simulator-scale JCT with limited cross-rack bandwidth.
//!
//! The rack uplinks shrink from 1:1 to 20:1 oversubscription. NetPack's
//! cross-rack penalty and selective INA enabling should widen its lead as
//! the uplinks get scarcer (the paper reports the average reduction
//! growing from 52% at 1:1 to 89% at 20:1). Each (ratio, placer,
//! repetition) cell is an independent simulation, fanned out across
//! threads via [`roster_sweep`].

use netpack_bench::{named_placer, quick, repeats, replay_cell, roster_names, roster_sweep};
use netpack_flowsim::SimConfig;
use netpack_metrics::{Summary, TextTable};
use netpack_topology::ClusterSpec;
use netpack_workload::TraceKind;

fn main() {
    let ratios = [1.0, 2.0, 5.0, 10.0, 20.0];
    let jobs = if quick() { 60 } else { 240 };
    println!(
        "Fig. 12 — JCT vs oversubscription (Real trace, {} jobs, {} repetitions)\n",
        jobs,
        repeats()
    );
    let mut table = TextTable::new(
        std::iter::once("oversub".to_string())
            .chain(roster_names().iter().map(|s| format!("{s} (norm)")))
            .collect::<Vec<_>>(),
    );
    let results = roster_sweep(&ratios, repeats(), 5000, |&ratio, name, seed| {
        let spec = ClusterSpec {
            racks: 8,
            servers_per_rack: 8,
            oversubscription: ratio,
            ..ClusterSpec::paper_default()
        };
        let placer = named_placer(name);
        let result = replay_cell(
            &spec,
            TraceKind::Real,
            jobs,
            seed,
            placer,
            SimConfig::default(),
        );
        result.average_jct_s().expect("jobs finished")
    });
    for (&ratio, row) in ratios.iter().zip(&results) {
        let means: Vec<f64> = row.iter().map(|jcts| Summary::of(jcts).mean).collect();
        let netpack = means[0];
        let mut row = vec![format!("{ratio:.0}:1")];
        row.extend(means.iter().map(|m| format!("{:.3}", m / netpack)));
        table.row(row);
    }
    println!("{table}");
    println!("paper: the advantage grows with the oversubscription ratio (52% -> 89%).");
}
