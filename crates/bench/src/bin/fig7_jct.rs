//! Fig. 7 — average job completion time: six placers × three traces, on
//! the testbed-scale cluster and on the default simulated cluster.
//!
//! JCT is normalized to NetPack (= 1.00) within each group, as the paper
//! plots it; the raw seconds and the std-dev across repetitions are also
//! printed. Every (trace, placer, repetition) cell is an independent
//! replay, fanned out across threads via [`roster_sweep`].

use netpack_bench::{
    named_placer, repeats, replay_cell, roster_names, roster_sweep, simulator_spec, standard_jobs,
    testbed_spec,
};
use netpack_flowsim::SimConfig;
use netpack_metrics::{Summary, TextTable};
use netpack_workload::TraceKind;

fn main() {
    println!(
        "Fig. 7 — normalized average JCT ({} repetitions per point)\n",
        repeats()
    );
    for (label, spec) in [("[Testbed] 5 servers", testbed_spec()), ("[Simulator] 16 racks", simulator_spec())]
    {
        let jobs = standard_jobs(&spec);
        println!("{label}: {} jobs per trace", jobs);
        let mut table = TextTable::new(vec!["placer", "Real", "Poisson", "Normal", "Real JCT (s)", "±std"]);
        let results = roster_sweep(&TraceKind::ALL, repeats(), 1000, |&kind, name, seed| {
            let placer = named_placer(name);
            let result = replay_cell(&spec, kind, jobs, seed, placer, SimConfig::default());
            result.average_jct_s().expect("jobs finished")
        });
        // [trace][placer] -> JCT summary across repetitions.
        let jct: Vec<Vec<Summary>> =
            results.iter().map(|row| row.iter().map(|r| Summary::of(r)).collect()).collect();
        for (i, name) in roster_names().iter().enumerate() {
            table.row(vec![
                name.to_string(),
                format!("{:.3}", jct[0][i].mean / jct[0][0].mean),
                format!("{:.3}", jct[1][i].mean / jct[1][0].mean),
                format!("{:.3}", jct[2][i].mean / jct[2][0].mean),
                format!("{:.1}", jct[0][i].mean),
                format!("{:.1}", jct[0][i].std),
            ]);
        }
        println!("{table}");
    }
    println!("paper: NetPack = 1.0; baselines 1.13-1.45x on the testbed, larger in simulation.");
}
