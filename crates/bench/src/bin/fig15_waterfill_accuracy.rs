//! Fig. 15 — water-filling estimation vs measured bandwidth.
//!
//! Three identical jobs join a statistical-INA switch at staggered times.
//! At each stage we compare the per-job bandwidth *measured* by the
//! packet-level simulator against the water-filling *estimate* of the
//! steady state for the same active job set.

use netpack_metrics::TextTable;
use netpack_model::Placement;
use netpack_packetsim::{PacketJobSpec, PacketSim, SwitchConfig};
use netpack_topology::{Cluster, ClusterSpec, JobId, ServerId};
use netpack_waterfill::{estimate, PlacedJob};

fn main() {
    // One rack, 9 servers: each job uses 2 worker servers + 1 PS server.
    let pool_pat_gbps = 60.0;
    let spec = ClusterSpec {
        racks: 1,
        servers_per_rack: 9,
        gpus_per_server: 1,
        pat_gbps: pool_pat_gbps,
        ..ClusterSpec::paper_default()
    };
    let cluster = Cluster::new(spec);
    let starts = [0.0, 2.0, 4.0];
    let stage_ends = [2.0, 4.0, 6.0];

    // ---- water-filling estimates per stage ----
    let job_placement = |k: usize| {
        Placement::new(
            vec![(ServerId(3 * k), 1), (ServerId(3 * k + 1), 1)],
            Some(ServerId(3 * k + 2)),
        )
    };
    let mut estimates: Vec<Vec<f64>> = Vec::new(); // stage -> per-job rate
    for stage in 1..=3usize {
        let placed: Vec<PlacedJob> = (0..stage)
            .map(|k| PlacedJob::new(JobId(k as u64), &cluster, &job_placement(k)))
            .collect();
        let state = estimate(&cluster, &placed);
        estimates.push(
            (0..stage)
                .map(|k| state.job_rate_gbps(JobId(k as u64)).unwrap())
                .collect(),
        );
    }

    // ---- packet-level measurement ----
    let config = SwitchConfig::default();
    let pool_slots =
        (pool_pat_gbps * 1e9 * config.rtt_us * 1e-6 / (config.payload_bytes as f64 * 8.0)) as usize;
    let mut sim = PacketSim::new(SwitchConfig {
        pool_slots,
        ..config
    });
    for (k, &start) in starts.iter().enumerate() {
        sim.add_job(PacketJobSpec {
            id: JobId(k as u64),
            fan_in: 2,
            gradient_gbits: 1.0,
            compute_time_s: 0.0,
            iterations: 0,
            start_s: start,
            target_gbps: None,
        });
    }
    let report = sim.run(6.0);

    // Average measured goodput of each job within each stage window,
    // skipping a short convergence margin after each join.
    let margin = 0.8;
    println!("Fig. 15 — per-job bandwidth: water-filling estimate vs packet measurement\n");
    let mut table = TextTable::new(vec![
        "stage",
        "active jobs",
        "job",
        "estimated (Gbps)",
        "measured (Gbps)",
    ]);
    let mut abs_err = Vec::new();
    for (stage, (&t0, &t1)) in starts.iter().zip(&stage_ends).enumerate() {
        #[allow(clippy::needless_range_loop)] // k also indexes `estimates[stage]`
        for k in 0..=stage {
            let series = &report.per_job[k].goodput_series;
            let window: Vec<f64> = series
                .iter()
                .filter(|&&(t, _)| t >= t0 + margin && t <= t1)
                .map(|&(_, g)| g)
                .collect();
            if window.is_empty() {
                continue;
            }
            let measured = window.iter().sum::<f64>() / window.len() as f64;
            let estimated = estimates[stage][k];
            abs_err.push((measured - estimated).abs() / estimated);
            table.row(vec![
                format!("{}", stage + 1),
                format!("{}", stage + 1),
                format!("j{k}"),
                format!("{estimated:.1}"),
                format!("{measured:.1}"),
            ]);
        }
    }
    println!("{table}");
    let mape = 100.0 * abs_err.iter().sum::<f64>() / abs_err.len() as f64;
    println!("mean absolute relative error: {mape:.1}%");
    println!("paper: the estimate approximately fits the testbed usage, with a small");
    println!("lag while the data plane converges after each job joins.");
}
