//! Property tests for the packet-level simulator's conservation laws.

use netpack_packetsim::{MemoryMode, PacketJobSpec, PacketSim, SwitchConfig};
use netpack_topology::JobId;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SwitchConfig> {
    (0usize..2048, any::<bool>()).prop_map(|(pool, sync)| SwitchConfig {
        pool_slots: pool,
        mode: if sync {
            MemoryMode::Synchronous
        } else {
            MemoryMode::Statistical
        },
        ..SwitchConfig::default()
    })
}

fn arb_jobs() -> impl Strategy<Value = Vec<PacketJobSpec>> {
    proptest::collection::vec((1usize..5, 1u32..40, 0u32..3, any::<bool>()), 1..4).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (fan_in, grad_dmb, compute_ms, paced))| PacketJobSpec {
                id: JobId(i as u64),
                fan_in,
                gradient_gbits: grad_dmb as f64 / 100.0,
                compute_time_s: compute_ms as f64 * 1e-3,
                iterations: 0,
                start_s: 0.0,
                target_gbps: if paced { Some(10.0) } else { None },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Goodput can never exceed the link rate, aggregated+fallback groups
    /// are consistent with goodput, and reruns are deterministic.
    #[test]
    fn conservation_and_determinism((config, jobs) in (arb_config(), arb_jobs())) {
        let run = || {
            let mut sim = PacketSim::new(config.clone());
            for j in &jobs {
                sim.add_job(j.clone());
            }
            sim.run(0.02)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b, "packet sim must be deterministic");
        for s in &a.per_job {
            let gbps = s.mean_goodput_gbps(a.duration_s);
            prop_assert!(gbps <= config.link_gbps + 1e-6, "goodput {gbps} over link rate");
            // Acked payload can never exceed what was sent.
            let sent_bits = (s.aggregated_groups + s.fallback_groups) as f64
                * config.payload_bytes as f64 * 8.0;
            prop_assert!(s.goodput_bits <= sent_bits + 1e-6);
            let ratio = s.aggregation_ratio();
            prop_assert!((0.0..=1.0).contains(&ratio));
        }
    }

    /// In synchronous mode nothing ever falls back; in statistical mode a
    /// zero pool aggregates nothing.
    #[test]
    fn mode_invariants((pool, jobs) in (0usize..512, arb_jobs())) {
        let mut sync = PacketSim::new(SwitchConfig {
            pool_slots: pool,
            mode: MemoryMode::Synchronous,
            ..SwitchConfig::default()
        });
        let mut zero = PacketSim::new(SwitchConfig {
            pool_slots: 0,
            ..SwitchConfig::default()
        });
        for j in &jobs {
            sync.add_job(j.clone());
            zero.add_job(j.clone());
        }
        for s in &sync.run(0.02).per_job {
            prop_assert_eq!(s.fallback_groups, 0, "synchronous INA never falls back");
        }
        for s in &zero.run(0.02).per_job {
            prop_assert_eq!(s.aggregated_groups, 0, "no memory, no aggregation");
        }
    }

    /// The PAT law upper-bounds aggregation throughput: aggregated groups
    /// per round can never exceed the pool size.
    #[test]
    fn pat_upper_bound((pool, jobs) in (1usize..256, arb_jobs())) {
        let mut sim = PacketSim::new(SwitchConfig {
            pool_slots: pool,
            ..SwitchConfig::default()
        });
        for j in &jobs {
            sim.add_job(j.clone());
        }
        let report = sim.run(0.02);
        let total_aggregated: u64 = report.per_job.iter().map(|s| s.aggregated_groups).sum();
        prop_assert!(
            total_aggregated <= pool as u64 * report.rounds,
            "aggregated {total_aggregated} exceeds pool x rounds"
        );
    }
}
