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

/// Richer job mix for the cross-path pin: bounded iterations, staggered
/// starts, and pacing rates that land under, at, and over the link rate
/// (120 Gbps > the 100 Gbps link exercises the BDP window cap).
fn arb_rich_jobs() -> impl Strategy<Value = Vec<PacketJobSpec>> {
    proptest::collection::vec(
        (1usize..5, 1u32..40, 0u32..4, 0u32..4, 0u32..30, 0usize..4),
        1..5,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(
                |(i, (fan_in, grad_dmb, compute_ms, iterations, start_ms, rate_pick))| {
                    PacketJobSpec {
                        id: JobId(i as u64),
                        fan_in,
                        gradient_gbits: grad_dmb as f64 / 100.0,
                        compute_time_s: compute_ms as f64 * 1e-3,
                        iterations: iterations as u64,
                        start_s: start_ms as f64 * 1e-3,
                        target_gbps: [None, Some(10.0), Some(25.0), Some(120.0)][rate_pick],
                    }
                },
            )
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `run` (interval collision counting + round batching) is
    /// bit-identical to the literal per-packet `run_reference` across random
    /// pools, fan-ins, rate caps, iteration counts, and staggered starts —
    /// the packetsim analogue of flowsim's `run` vs `run_reference` pin.
    /// Production never stamps a packet: its `packets_touched` reads 0.
    #[test]
    fn fast_path_is_bit_identical_to_scratch(
        (config, jobs) in (arb_config(), arb_rich_jobs())
    ) {
        let sim = || {
            let mut sim = PacketSim::new(config.clone());
            for j in &jobs {
                sim.add_job(j.clone());
            }
            sim
        };
        let fast = sim().run(0.03);
        let scratch = sim().run_reference(0.03);
        prop_assert_eq!(&fast, &scratch, "run diverged from run_reference");
        prop_assert_eq!(fast.perf.counter("packets_touched"), 0);
        for (f, s) in fast.per_job.iter().zip(&scratch.per_job) {
            // PartialEq on the report already covers these, but compare the
            // float fields for *bit* equality, not just numeric equality.
            prop_assert_eq!(f.goodput_bits.to_bits(), s.goodput_bits.to_bits());
            prop_assert_eq!(f.goodput_series.len(), s.goodput_series.len());
            for (a, b) in f.goodput_series.iter().zip(&s.goodput_series) {
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }
}
