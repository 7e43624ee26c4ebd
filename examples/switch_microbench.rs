//! Exercise the packet-level switch simulator directly: the PAT law,
//! fair sharing, and the statistical-vs-synchronous comparison.
//!
//! ```sh
//! cargo run --release --example switch_microbench
//! ```

use netpack::packetsim::{MemoryMode, PacketJobSpec, PacketSim, SwitchConfig};
use netpack::prelude::*;

fn streaming_job(id: u64, rate_gbps: f64) -> PacketJobSpec {
    PacketJobSpec {
        id: JobId(id),
        fan_in: 2,
        gradient_gbits: 0.5,
        compute_time_s: 0.0,
        iterations: 0,
        start_s: 0.0,
        target_gbps: Some(rate_gbps),
    }
}

fn main() {
    // --- The PAT law: aggregation ratio tracks pool/(rate x RTT). ---
    println!("PAT law (paper Fig. 14a): aggregation ratio vs PAT ratio");
    let mut table = TextTable::new(vec!["PAT ratio", "measured", "theory (y=x)"]);
    for x in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let base = SwitchConfig::default();
        let window = base.rate_to_pkts(10.0);
        let config = SwitchConfig {
            pool_slots: (x * window as f64).round() as usize,
            ..base
        };
        let mut sim = PacketSim::new(config);
        sim.add_job(streaming_job(0, 10.0));
        let report = sim.run(0.05);
        table.row_f64(
            format!("{x:.1}"),
            &[report.per_job[0].aggregation_ratio(), x],
        );
    }
    println!("{table}");

    // --- Fair sharing between two jobs (Fig. 14b). ---
    println!("fair sharing (Fig. 14b): two jobs, pool sized for one");
    let base = SwitchConfig::default();
    let window = base.rate_to_pkts(10.0);
    let config = SwitchConfig {
        pool_slots: window,
        ..base
    };
    let mut sim = PacketSim::new(config);
    sim.add_job(streaming_job(0, 10.0));
    sim.add_job(streaming_job(1, 10.0));
    let report = sim.run(0.1);
    for s in &report.per_job {
        println!(
            "  job {}: aggregation ratio {:.3} (theory 0.5)",
            s.id,
            s.aggregation_ratio()
        );
    }

    // --- Statistical vs synchronous under scarce memory (Fig. 2). ---
    println!("\nscarce memory (Fig. 2): goodput by memory mode");
    let mut table = TextTable::new(vec!["pool slots", "statistical Gbps", "synchronous Gbps"]);
    for slots in [32usize, 128, 512, 2048] {
        let run = |mode| {
            let config = SwitchConfig {
                pool_slots: slots,
                mode,
                ..SwitchConfig::default()
            };
            let mut sim = PacketSim::new(config);
            sim.add_job(PacketJobSpec {
                target_gbps: None,
                ..streaming_job(0, 0.0)
            });
            let r = sim.run(0.05);
            r.per_job[0].mean_goodput_gbps(r.duration_s)
        };
        table.row_f64(
            slots.to_string(),
            &[run(MemoryMode::Statistical), run(MemoryMode::Synchronous)],
        );
    }
    println!("{table}");
    println!("statistical INA degrades gracefully; synchronous INA is capped at region/RTT.");
}
