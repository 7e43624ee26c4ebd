//! Fig. 11 — testbed-scale JCT with limited switch memory.
//!
//! Other switch functions steal memory in production, so the paper sweeps
//! the available PAT down to zero and finds NetPack's advantage *grows*
//! as memory shrinks (30-92% JCT reduction), because bandwidth becomes
//! the scarce resource NetPack alone manages.
//!
//! Every (PAT, placer, repetition) cell is an independent simulation,
//! fanned out via [`roster_sweep`] with a deterministic ordered merge.

use netpack_bench::{
    emit_table, named_placer, repeats, replay_cell, roster_names, roster_sweep, standard_jobs,
};
use netpack_flowsim::SimConfig;
use netpack_metrics::{Summary, TextTable};
use netpack_topology::ClusterSpec;
use netpack_workload::TraceKind;

fn main() {
    let pats = [1000.0, 200.0, 100.0, 50.0, 25.0, 10.0, 0.0];
    println!(
        "Fig. 11 — JCT vs available switch PAT (Real trace, {} repetitions)\n",
        repeats()
    );
    let results = roster_sweep(&pats, repeats(), 4000, |&pat, name, seed| {
        let spec = ClusterSpec {
            pat_gbps: pat,
            ..ClusterSpec::paper_testbed()
        };
        let jobs = standard_jobs(&spec);
        let placer = named_placer(name);
        let result = replay_cell(&spec, TraceKind::Real, jobs, seed, placer, SimConfig::default());
        result.average_jct_s().expect("jobs finished")
    });

    let mut table = TextTable::new(
        std::iter::once("PAT (Gbps)".to_string())
            .chain(roster_names().iter().map(|s| format!("{s} (norm)")))
            .collect::<Vec<_>>(),
    );
    for (&pat, row) in pats.iter().zip(&results) {
        let means: Vec<f64> = row.iter().map(|jcts| Summary::of(jcts).mean).collect();
        let netpack = means[0];
        let mut row = vec![format!("{pat:.0}")];
        row.extend(means.iter().map(|m| format!("{:.3}", m / netpack)));
        table.row(row);
    }
    emit_table("fig11", &table);
    println!("paper: NetPack's advantage grows as switch memory shrinks (30-92%),");
    println!("and persists even with PAT = 0 (pure bandwidth/GPU management).");
}
