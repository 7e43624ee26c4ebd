//! Fig. 8 — average distribution efficiency: six placers × three traces.
//!
//! DE isolates the placement effect from model size:
//! `DE = (1/|Jobs|) Σ JCT_1gpu / (JCT × gpus)`; a linearly scaling system
//! with zero network overhead scores 1.0. Every (trace, placer,
//! repetition) cell is an independent replay, fanned out across threads
//! via [`roster_sweep`].

use netpack_bench::{
    named_placer, repeats, replay_cell, roster_names, roster_sweep, simulator_spec, standard_jobs,
    testbed_spec,
};
use netpack_flowsim::SimConfig;
use netpack_metrics::{Summary, TextTable};
use netpack_workload::TraceKind;

fn main() {
    println!(
        "Fig. 8 — average distribution efficiency ({} repetitions per point)\n",
        repeats()
    );
    for (label, spec) in [("[Testbed] 5 servers", testbed_spec()), ("[Simulator] 16 racks", simulator_spec())]
    {
        let jobs = standard_jobs(&spec);
        println!("{label}: {} jobs per trace", jobs);
        let mut table = TextTable::new(vec!["placer", "Real", "Poisson", "Normal", "±std (Real)"]);
        let results = roster_sweep(&TraceKind::ALL, repeats(), 1000, |&kind, name, seed| {
            let placer = named_placer(name);
            let result = replay_cell(&spec, kind, jobs, seed, placer, SimConfig::default());
            result.distribution_efficiency().expect("jobs finished")
        });
        // [trace][placer] -> DE summary across repetitions.
        let de: Vec<Vec<Summary>> =
            results.iter().map(|row| row.iter().map(|r| Summary::of(r)).collect()).collect();
        for (i, name) in roster_names().iter().enumerate() {
            table.row(vec![
                name.to_string(),
                format!("{:.3}", de[0][i].mean),
                format!("{:.3}", de[1][i].mean),
                format!("{:.3}", de[2][i].mean),
                format!("{:.3}", de[0][i].std),
            ]);
        }
        println!("{table}");
    }
    println!("paper: NetPack improves DE by 13-46% over baselines (up to 2.4x in simulation).");
}
