//! Fig. 14 — validation of the aggregation-pattern model and fair sharing.
//!
//! (a) One job at 10 Gbps; the pool is sized to `x` times the job's
//! rate-window. Measured aggregation ratio should track `y = x`.
//! (b) Two identical jobs share a pool sized for one (100% PAT is for one
//! job); each job's ratio should track `y = 0.5x`, evidencing max-min fair
//! sharing of switch memory.
//!
//! Each (part, PAT-ratio) cell is an independent packet simulation, so
//! the sweep fans out via [`parallel_sweep`]; set `NETPACK_PERF=1` to
//! print the merged round-loop counters. The root `oracles` test
//! `packet_simulator_reproduces_the_pinned_fig14_cells` pins every cell's
//! group counts and goodput bits.

use netpack_bench::{emit_table, packet_stream_job, parallel_sweep, pat_ratio_config, print_perf};
use netpack_metrics::{PerfCounters, TextTable};
use netpack_packetsim::PacketSim;

const XS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

fn main() {
    // One cell per (part, PAT ratio): part 0 = Fig. 14a (one job, 0.05 s),
    // part 1 = Fig. 14b (two jobs, 0.1 s).
    let cells: Vec<(usize, f64)> = (0..2)
        .flat_map(|p| XS.iter().map(move |&x| (p, x)))
        .collect();
    let results = parallel_sweep(&cells, |&(part, x)| {
        let mut sim = PacketSim::new(pat_ratio_config(x, 10.0));
        sim.add_job(packet_stream_job(0, 2, Some(10.0)));
        if part == 1 {
            sim.add_job(packet_stream_job(1, 2, Some(10.0)));
        }
        let duration_s = if part == 0 { 0.05 } else { 0.1 };
        let report = sim.run(duration_s);
        let ratios: Vec<f64> = report
            .per_job
            .iter()
            .map(|s| s.aggregation_ratio())
            .collect();
        (ratios, report.perf)
    });

    let mut perf = PerfCounters::new();
    let mut it = results.iter();

    println!("Fig. 14a — single job: aggregation ratio vs PAT ratio (theory y = x)\n");
    let mut table = TextTable::new(vec!["PAT ratio", "measured", "theory"]);
    for &x in &XS {
        let (ratios, cell_perf) = it.next().expect("one result per cell");
        perf.merge(cell_perf);
        table.row_f64(format!("{x:.1}"), &[ratios[0], x]);
    }
    emit_table("fig14a", &table);

    println!("Fig. 14b — two jobs, pool sized for one: per-job ratio (theory y = 0.5x)\n");
    let mut table = TextTable::new(vec!["PAT ratio", "job 0", "job 1", "theory"]);
    for &x in &XS {
        let (ratios, cell_perf) = it.next().expect("one result per cell");
        perf.merge(cell_perf);
        table.row_f64(format!("{x:.1}"), &[ratios[0], ratios[1], 0.5 * x]);
    }
    emit_table("fig14b", &table);
    println!("paper: measured tracks theory with small deviation; jobs share memory fairly.");
    print_perf(
        "\nRound-loop perf counters (merged across all cells):",
        &perf,
    );
}
