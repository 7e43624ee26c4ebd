//! Fig. 9 — simulator-scale average JCT vs cluster scale.
//!
//! The paper replays a 4K-job real workload on clusters of 100 to 10K
//! servers (16 racks) and reports an average 31% JCT reduction for
//! NetPack. We sweep the same shape; `NETPACK_QUICK=1` trims the sweep.
//! The bench crate's `smoke` test replays one 256-server x 400-job cell
//! of it under every roster placer through the from-scratch oracle
//! (`Simulation::run_reference`) as well. Every (size, placer, repetition)
//! cell is an independent simulation, so the sweep fans out across
//! threads via [`roster_sweep`]; set `NETPACK_PERF=1` to print the
//! merged event-loop counters afterwards.

use netpack_bench::{
    loaded_trace, named_placer, print_perf, quick, repeats, roster_names, roster_sweep,
};
use netpack_flowsim::{SimConfig, Simulation};
use netpack_metrics::{PerfCounters, Summary, TextTable};
use netpack_topology::{Cluster, ClusterSpec};
use netpack_workload::TraceKind;

fn main() {
    let sizes: Vec<usize> = if quick() {
        vec![100, 400]
    } else {
        vec![100, 256, 1024, 4096, 10_000]
    };
    let jobs = if quick() { 100 } else { 1000 };
    println!(
        "Fig. 9 — JCT vs cluster scale (Real trace, {} jobs, {} repetitions)\n",
        jobs,
        repeats()
    );
    let mut table = TextTable::new(
        std::iter::once("servers".to_string())
            .chain(roster_names().iter().map(|s| format!("{s} (norm)")))
            .chain(std::iter::once("NetPack JCT (s)".to_string()))
            .collect::<Vec<_>>(),
    );
    // The paper replays the SAME workload on every cluster size, so the
    // trace is generated once against the smallest cluster and reused;
    // larger clusters are correspondingly less loaded, as in Fig. 9.
    let base_spec = ClusterSpec {
        racks: 16.min(sizes[0]),
        servers_per_rack: sizes[0] / 16.min(sizes[0]),
        ..ClusterSpec::paper_default()
    };
    let results = roster_sweep(&sizes, repeats(), 3000, |&servers, name, seed| {
        let racks = 16.min(servers);
        let spec = ClusterSpec {
            racks,
            servers_per_rack: servers / racks,
            ..ClusterSpec::paper_default()
        };
        let trace = loaded_trace(TraceKind::Real, &base_spec, jobs, seed);
        let sim = Simulation::new(Cluster::new(spec), named_placer(name), SimConfig::default());
        let result = sim.run(&trace);
        let jct = result.average_jct_s().expect("jobs finished");
        (jct, result.perf)
    });
    let mut perf = PerfCounters::new();
    for (&servers, row) in sizes.iter().zip(&results) {
        let mut means = Vec::new();
        for cell in row {
            let jcts: Vec<f64> = cell.iter().map(|&(jct, _)| jct).collect();
            for (_, cell_perf) in cell {
                perf.merge(cell_perf);
            }
            means.push(Summary::of(&jcts).mean);
        }
        let netpack = means[0];
        let mut row = vec![servers.to_string()];
        row.extend(means.iter().map(|m| format!("{:.3}", m / netpack)));
        row.push(format!("{netpack:.1}"));
        table.row(row);
    }
    println!("{table}");
    println!("paper: NetPack provides an average 31% JCT reduction across scales.");
    assert_eq!(
        perf.counter("wf_unconverged"),
        0,
        "a water-fill solve hit its round bound"
    );
    print_perf(
        "\nEvent-loop perf counters (merged across all cells):",
        &perf,
    );
}
