//! Seeded determinism: the packet simulator is a pure function of
//! `(SwitchConfig, jobs, seed)`.

use netpack_packetsim::{MemoryMode, PacketJobSpec, PacketSim, SwitchConfig};
use netpack_topology::JobId;

fn jobs() -> Vec<PacketJobSpec> {
    vec![
        PacketJobSpec {
            id: JobId(0),
            fan_in: 2,
            gradient_gbits: 0.5,
            compute_time_s: 0.0,
            iterations: 0,
            start_s: 0.0,
            target_gbps: Some(10.0),
        },
        PacketJobSpec {
            id: JobId(1),
            fan_in: 4,
            gradient_gbits: 0.2,
            compute_time_s: 0.002,
            iterations: 3,
            start_s: 0.01,
            target_gbps: None,
        },
        PacketJobSpec {
            id: JobId(2),
            fan_in: 3,
            gradient_gbits: 0.1,
            compute_time_s: 0.001,
            iterations: 0,
            start_s: 0.0,
            target_gbps: Some(25.0),
        },
    ]
}

fn sim(config: &SwitchConfig, seed: u64) -> PacketSim {
    let mut sim = PacketSim::with_seed(config.clone(), seed);
    for j in jobs() {
        sim.add_job(j);
    }
    sim
}

fn run(config: &SwitchConfig, seed: u64) -> netpack_packetsim::PacketSimReport {
    sim(config, seed).run(0.06)
}

/// Two fresh simulators with the same config, job set, and seed produce
/// byte-identical reports — across both memory modes, and both the
/// production loop and the per-packet reference.
#[test]
fn same_seed_same_report_across_all_modes() {
    for mode in [MemoryMode::Statistical, MemoryMode::Synchronous] {
        for reference in [false, true] {
            let config = SwitchConfig {
                pool_slots: 256,
                mode,
                ..SwitchConfig::default()
            };
            let run = |seed| {
                if reference {
                    sim(&config, seed).run_reference(0.06)
                } else {
                    sim(&config, seed).run(0.06)
                }
            };
            let a = run(7);
            let b = run(7);
            assert_eq!(
                a, b,
                "{mode:?}/reference={reference}: same seed must reproduce"
            );
            // Bit-level check on the float fields, beyond PartialEq.
            for (x, y) in a.per_job.iter().zip(&b.per_job) {
                assert_eq!(x.goodput_bits.to_bits(), y.goodput_bits.to_bits());
                for (p, q) in x.goodput_series.iter().zip(&y.goodput_series) {
                    assert_eq!(p.0.to_bits(), q.0.to_bits());
                    assert_eq!(p.1.to_bits(), q.1.to_bits());
                }
            }
        }
    }
}

/// Different seeds lay slot bases out differently, which shows up once
/// the pool is contended — but each layout is itself deterministic.
#[test]
fn distinct_seeds_are_deterministic_layouts() {
    let config = SwitchConfig {
        pool_slots: 64,
        ..SwitchConfig::default()
    };
    let a7 = run(&config, 7);
    let a7_again = run(&config, 7);
    let a11 = run(&config, 11);
    assert_eq!(a7, a7_again);
    let a11_again = run(&config, 11);
    assert_eq!(a11, a11_again);
}

/// `PacketSim::new` equals `with_seed` at the default; seed 0 (the
/// xorshift fixed point) is remapped onto the default seed.
#[test]
fn new_matches_default_seed_and_zero_is_remapped() {
    let config = SwitchConfig {
        pool_slots: 256,
        ..SwitchConfig::default()
    };
    let via_new = {
        let mut sim = PacketSim::new(config.clone());
        for j in jobs() {
            sim.add_job(j);
        }
        sim.run(0.06)
    };
    let via_default_seed = run(&config, 0x9E3779B97F4A7C15);
    let via_zero = run(&config, 0);
    assert_eq!(via_new, via_default_seed);
    assert_eq!(via_new, via_zero);
}
