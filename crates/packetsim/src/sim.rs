//! The per-RTT packet simulation loop.
//!
//! [`PacketSim::run`] steps one RTT round at a time and models every
//! packet. Each round it fires the phase transitions (start times,
//! compute phases ending), then lets every communicating job send its
//! window in an order that rotates by one job per round, so pool
//! contention is FCFS-fair over time. A job's `(job, PSN)` group
//! addresses slot `(base + PSN) mod pool`; the first group to reach a slot
//! in a round reserves it (stamped with the round number in `slot_owner`,
//! so the table is never cleared) and aggregates, a later one falls back
//! to the PS. A job's PSNs run sequentially from its base, so it never
//! collides with itself and one job's aggregation ratio tracks
//! `min(1, PAT ratio)` (Fig. 14a).
//!
//! [`PacketSimReport::perf`] records the work: the `rounds_simulated` and
//! `packets_modeled` counters and a `run` wall-clock timer.

use crate::{JobStats, PacketSimReport};
use netpack_metrics::PerfCounters;
use netpack_metrics::Stopwatch;
use netpack_topology::JobId;

/// How the switch memory is multiplexed (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryMode {
    /// Statistical multiplexing (ATP-style): a shared aggregator pool,
    /// transient per-RTT reservation, fallback to the PS on collision.
    #[default]
    Statistical,
    /// Synchronous multiplexing (SwitchML-style): the pool is split into
    /// fixed per-job regions reserved for the job's lifetime; a job's
    /// in-flight window can never exceed its region, and a zero-size
    /// region halts the job.
    Synchronous,
}

/// Switch and link configuration for the packet simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    /// Aggregator slots in the switch memory pool.
    pub pool_slots: usize,
    /// Memory multiplexing mode.
    pub mode: MemoryMode,
    /// Packet payload in bytes.
    pub payload_bytes: usize,
    /// Round-trip time in microseconds (one simulation round).
    pub rtt_us: f64,
    /// Capacity of each worker/PS access link, in Gbps.
    pub link_gbps: f64,
}

impl SwitchConfig {
    /// Packets of payload that fit one link-RTT (the per-flow BDP).
    pub fn bdp_pkts(&self) -> usize {
        let bits = self.link_gbps * 1e9 * self.rtt_us * 1e-6;
        (bits / (self.payload_bytes as f64 * 8.0)).floor().max(1.0) as usize
    }

    /// Packets per round corresponding to a pacing rate in Gbps.
    pub fn rate_to_pkts(&self, gbps: f64) -> usize {
        let bits = gbps * 1e9 * self.rtt_us * 1e-6;
        (bits / (self.payload_bytes as f64 * 8.0)).round().max(0.0) as usize
    }

    /// The pool's Peak Aggregation Throughput in Gbps: `M / RTT` (§4.1).
    pub fn pat_gbps(&self) -> f64 {
        self.pool_slots as f64 * self.payload_bytes as f64 * 8.0 / (self.rtt_us * 1e-6) / 1e9
    }

    /// `(job, PSN)` packet groups in one gradient of `gbits` gigabits —
    /// the single home of the ceil-of-gigabits formula used both at job
    /// registration and at iteration reset.
    pub fn gradient_groups(&self, gbits: f64) -> u64 {
        (gbits * 1e9 / (self.payload_bytes as f64 * 8.0))
            .ceil()
            .max(1.0) as u64
    }
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            pool_slots: 4096,
            mode: MemoryMode::default(),
            payload_bytes: 1024,
            rtt_us: 50.0,
            link_gbps: 100.0,
        }
    }
}

/// One training job as the packet simulator sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketJobSpec {
    /// The job.
    pub id: JobId,
    /// Number of workers streaming into the switch.
    pub fan_in: usize,
    /// Gradient volume per worker per iteration, in gigabits.
    pub gradient_gbits: f64,
    /// Computation time per iteration, in seconds (0 = stream
    /// continuously, as the Fig. 14 microbenchmarks do).
    pub compute_time_s: f64,
    /// Iterations to run; 0 = unbounded (run for the whole simulation).
    pub iterations: u64,
    /// When the job starts, in seconds.
    pub start_s: f64,
    /// Fixed pacing rate in Gbps (as in Fig. 14's 10 Gbps jobs); `None`
    /// enables AIMD congestion control.
    pub target_gbps: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Waiting,
    Computing { rounds_left: u64 },
    Communicating,
    Finished,
}

#[derive(Debug, Clone)]
struct JobState {
    spec: PacketJobSpec,
    phase: Phase,
    cwnd: f64,
    next_psn: u64,
    /// Packet groups left in the current iteration's gradient.
    remaining_groups: u64,
    iterations_done: u64,
    /// The slot of PSN 0: the job's group `psn` reserves slot
    /// `(base + psn) % pool`.
    base: usize,
    /// Fixed region `(offset, size)` in synchronous mode.
    region: (usize, usize),
    stats: JobStats,
    goodput_bucket_bits: f64,
}

/// The packet-level simulator: one statistical-INA (or synchronous-INA)
/// switch, its aggregator pool, and a set of iterative training jobs.
#[derive(Debug, Clone)]
pub struct PacketSim {
    config: SwitchConfig,
    jobs: Vec<JobState>,
    /// Slot reservation table for the current round: stamped with the
    /// round number to avoid clearing each round.
    slot_owner: Vec<u64>,
    round: u64,
    rng: u64,
}

/// The default xorshift seed for [`PacketSim::new`].
const DEFAULT_SEED: u64 = 0x9E3779B97F4A7C15;

impl PacketSim {
    /// A simulator over the given switch.
    pub fn new(config: SwitchConfig) -> Self {
        Self::with_seed(config, DEFAULT_SEED)
    }

    /// A simulator whose slot-base RNG starts from `seed`, so runs are
    /// reproducible per seed and distinct seeds give distinct
    /// (deterministic) slot-base layouts. A zero seed is replaced by the
    /// default (xorshift has a zero fixed point).
    pub fn with_seed(config: SwitchConfig, seed: u64) -> Self {
        let slots = config.pool_slots;
        PacketSim {
            config,
            jobs: Vec::new(),
            slot_owner: vec![0; slots.max(1)],
            round: 0,
            rng: if seed == 0 { DEFAULT_SEED } else { seed },
        }
    }

    /// The switch configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Register a job.
    ///
    /// # Panics
    ///
    /// Panics if `fan_in` is zero or the gradient is non-positive.
    pub fn add_job(&mut self, spec: PacketJobSpec) {
        assert!(spec.fan_in >= 1, "job needs at least one worker");
        assert!(
            spec.gradient_gbits > 0.0 && spec.gradient_gbits.is_finite(),
            "gradient must be positive"
        );
        let base = self.next_rand() as usize % self.config.pool_slots.max(1);
        let gradient_groups = self.config.gradient_groups(spec.gradient_gbits);
        self.jobs.push(JobState {
            stats: JobStats {
                id: spec.id,
                aggregated_groups: 0,
                fallback_groups: 0,
                goodput_bits: 0.0,
                iterations_done: 0,
                finish_s: None,
                goodput_series: Vec::new(),
            },
            phase: Phase::Waiting,
            cwnd: 1.0,
            next_psn: 0,
            remaining_groups: gradient_groups,
            iterations_done: 0,
            base,
            region: (0, 0),
            spec,
            goodput_bucket_bits: 0.0,
        });
    }

    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Run the simulation for `duration_s` seconds (rounded down to whole
    /// RTT rounds) and return per-job statistics. Goodput is sampled into
    /// 100 buckets across the duration.
    pub fn run(&mut self, duration_s: f64) -> PacketSimReport {
        assert!(duration_s > 0.0, "duration must be positive");
        let start = Stopwatch::start();
        let rtt_s = self.config.rtt_us * 1e-6;
        let rounds = (duration_s / rtt_s).floor().max(1.0) as u64;
        let bucket_rounds = (rounds / 100).max(1);

        // Synchronous mode: carve fixed regions once, evenly.
        if self.config.mode == MemoryMode::Synchronous && !self.jobs.is_empty() {
            let region = self.config.pool_slots / self.jobs.len();
            for (i, job) in self.jobs.iter_mut().enumerate() {
                job.region = (i * region, region);
            }
        }

        let bdp = self.config.bdp_pkts();
        let payload_bits = self.config.payload_bytes as f64 * 8.0;
        let n_jobs = self.jobs.len().max(1);
        let mut packets_modeled = 0u64;

        let mut last_flush = 0u64;
        for step in 1..=rounds {
            self.round += 1;
            let round = self.round;
            let now_s = round as f64 * rtt_s;

            // Phase transitions.
            for job in self.jobs.iter_mut() {
                match job.phase {
                    Phase::Waiting if job.spec.start_s <= now_s => {
                        job.phase = Phase::Communicating;
                    }
                    Phase::Computing { rounds_left } => {
                        if rounds_left <= 1 {
                            job.phase = Phase::Communicating;
                        } else {
                            job.phase = Phase::Computing {
                                rounds_left: rounds_left - 1,
                            };
                        }
                    }
                    _ => {}
                }
            }

            // Transmit: rotate the processing order every round so pool
            // contention is FCFS-fair over time.
            let rotation = (round as usize) % n_jobs;
            for k in 0..self.jobs.len() {
                let ji = (k + rotation) % self.jobs.len();
                packets_modeled += self.step_job(ji, round, bdp, payload_bits, rtt_s, now_s);
            }

            // Goodput sampling; the bucket's span is the rounds it actually
            // covers (the final bucket can be short).
            if step.is_multiple_of(bucket_rounds) || step == rounds {
                let span_s = (step - last_flush) as f64 * rtt_s;
                last_flush = step;
                for job in self.jobs.iter_mut() {
                    let gbps = job.goodput_bucket_bits / span_s / 1e9;
                    job.stats.goodput_series.push((now_s, gbps));
                    job.goodput_bucket_bits = 0.0;
                }
            }
        }

        let mut perf = PerfCounters::new();
        perf.incr("rounds_simulated", rounds);
        perf.incr("packets_modeled", packets_modeled);
        perf.record("run", start.elapsed());

        PacketSimReport {
            per_job: self
                .jobs
                .iter()
                .map(|j| {
                    let mut s = j.stats.clone();
                    s.iterations_done = j.iterations_done;
                    s
                })
                .collect(),
            rounds,
            duration_s: rounds as f64 * rtt_s,
            perf,
        }
    }

    /// One job's transmissions for one round; returns the packets it sent.
    fn step_job(
        &mut self,
        ji: usize,
        round: u64,
        bdp: usize,
        payload_bits: f64,
        rtt_s: f64,
        now_s: f64,
    ) -> u64 {
        let pool = self.config.pool_slots;
        let mode = self.config.mode;
        let job = &mut self.jobs[ji];
        if job.phase != Phase::Communicating {
            return 0;
        }
        // Window for this round.
        let mut window = match job.spec.target_gbps {
            Some(rate) => self.config.rate_to_pkts(rate),
            None => job.cwnd.floor() as usize,
        };
        window = window.min(bdp).min(job.remaining_groups as usize);
        if mode == MemoryMode::Synchronous {
            window = window.min(job.region.1);
            if window == 0 {
                return 0; // zero memory halts a synchronous job (§2.2)
            }
        }
        if window == 0 {
            return 0;
        }

        // Address each (job, PSN) group to a slot.
        let mut aggregated = 0u64;
        let mut fallback = 0u64;
        match mode {
            MemoryMode::Synchronous => {
                // Dedicated region: no contention, everything aggregates.
                aggregated = window as u64;
            }
            MemoryMode::Statistical => {
                if pool == 0 {
                    fallback = window as u64;
                } else {
                    // Slots release within the round; a slot is busy only
                    // if some group reserved it *this* round. `round`
                    // starts at 1, so the zero-initialized table is free.
                    let stamp = round;
                    for k in 0..window {
                        let slot = (job.base + (job.next_psn + k as u64) as usize) % pool;
                        if self.slot_owner[slot] == stamp {
                            fallback += 1;
                        } else {
                            self.slot_owner[slot] = stamp;
                            aggregated += 1;
                        }
                    }
                }
            }
        }
        let job = &mut self.jobs[ji];
        job.stats.aggregated_groups += aggregated;
        job.stats.fallback_groups += fallback;

        // PS link admission: results arrive once per aggregated group,
        // `fan_in` times per fallback group.
        let delivered = aggregated + fallback * job.spec.fan_in as u64;
        let cap = bdp as u64;
        let sent = (aggregated + fallback) as f64;
        let acked_groups = if delivered <= cap {
            if job.spec.target_gbps.is_none() {
                job.cwnd = (job.cwnd + 1.0).min(bdp as f64);
            }
            sent
        } else {
            if job.spec.target_gbps.is_none() {
                // DCTCP-style decrease (the paper's endpoints run DCTCP):
                // back off in proportion to the congested fraction rather
                // than halving outright.
                let f = (delivered - cap) as f64 / delivered as f64;
                job.cwnd = (job.cwnd * (1.0 - f / 2.0)).max(1.0);
            }
            sent * cap as f64 / delivered as f64
        };

        // Progress accounting (per-worker goodput = groups x payload).
        job.goodput_bucket_bits += acked_groups * payload_bits;
        job.stats.goodput_bits += acked_groups * payload_bits;
        job.next_psn += window as u64;
        let acked_whole = acked_groups.floor() as u64;
        job.remaining_groups = job.remaining_groups.saturating_sub(acked_whole);

        if job.remaining_groups == 0 {
            job.iterations_done += 1;
            let done_all = job.spec.iterations > 0 && job.iterations_done >= job.spec.iterations;
            if done_all {
                job.phase = Phase::Finished;
                job.stats.finish_s = Some(now_s);
            } else {
                job.remaining_groups = self.config.gradient_groups(job.spec.gradient_gbits);
                let compute_rounds = (job.spec.compute_time_s / rtt_s).round() as u64;
                job.phase = if compute_rounds == 0 {
                    Phase::Communicating
                } else {
                    Phase::Computing {
                        rounds_left: compute_rounds,
                    }
                };
            }
        }
        window as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, fan_in: usize, rate: Option<f64>) -> PacketJobSpec {
        PacketJobSpec {
            id: JobId(id),
            fan_in,
            gradient_gbits: 0.5,
            compute_time_s: 0.0,
            iterations: 0,
            start_s: 0.0,
            target_gbps: rate,
        }
    }

    /// Fig. 14a setup: pool sized to a fraction `x` of the job's
    /// rate-window; expect aggregation ratio ~= min(1, x).
    fn fig14_config(pat_ratio: f64, rate_gbps: f64) -> SwitchConfig {
        let base = SwitchConfig {
            link_gbps: 100.0,
            ..SwitchConfig::default()
        };
        let window = base.rate_to_pkts(rate_gbps);
        SwitchConfig {
            pool_slots: (pat_ratio * window as f64).round() as usize,
            ..base
        }
    }

    #[test]
    fn aggregation_ratio_tracks_pat_ratio_for_one_job() {
        for x in [0.25, 0.5, 0.75, 1.0] {
            let mut sim = PacketSim::new(fig14_config(x, 10.0));
            sim.add_job(spec(0, 2, Some(10.0)));
            let report = sim.run(0.05);
            let y = report.per_job[0].aggregation_ratio();
            assert!((y - x).abs() < 0.05, "PAT ratio {x}: aggregation ratio {y}");
        }
    }

    #[test]
    fn two_jobs_share_the_pool_fairly() {
        // Pool sized for ONE job's full window (the Fig. 14b setup):
        // each of two identical jobs should aggregate ~ x/2.
        for x in [0.5, 1.0] {
            let mut sim = PacketSim::new(fig14_config(x, 10.0));
            sim.add_job(spec(0, 2, Some(10.0)));
            sim.add_job(spec(1, 2, Some(10.0)));
            let report = sim.run(0.1);
            let y0 = report.per_job[0].aggregation_ratio();
            let y1 = report.per_job[1].aggregation_ratio();
            assert!((y0 - y1).abs() < 0.1, "unfair: {y0} vs {y1}");
            assert!(
                (y0 - x / 2.0).abs() < 0.12,
                "PAT ratio {x}: job ratio {y0}, expected ~{}",
                x / 2.0
            );
        }
    }

    #[test]
    fn generous_pool_aggregates_everything() {
        let mut sim = PacketSim::new(SwitchConfig::default());
        sim.add_job(spec(0, 4, Some(10.0)));
        let report = sim.run(0.02);
        assert!(report.per_job[0].aggregation_ratio() > 0.95);
    }

    #[test]
    fn zero_pool_statistical_falls_back_but_progresses() {
        let config = SwitchConfig {
            pool_slots: 0,
            ..SwitchConfig::default()
        };
        let mut sim = PacketSim::new(config);
        sim.add_job(spec(0, 2, Some(10.0)));
        let report = sim.run(0.02);
        let s = &report.per_job[0];
        assert_eq!(s.aggregated_groups, 0);
        assert!(s.fallback_groups > 0);
        assert!(s.goodput_bits > 0.0, "fallback traffic still progresses");
    }

    #[test]
    fn zero_region_synchronous_halts() {
        // Two jobs over a 1-slot pool: regions are 0 slots each.
        let config = SwitchConfig {
            pool_slots: 1,
            mode: MemoryMode::Synchronous,
            ..SwitchConfig::default()
        };
        let mut sim = PacketSim::new(config);
        sim.add_job(spec(0, 2, None));
        sim.add_job(spec(1, 2, None));
        let report = sim.run(0.02);
        for s in &report.per_job {
            assert_eq!(s.goodput_bits, 0.0, "synchronous INA halts at 0 memory");
        }
    }

    #[test]
    fn statistical_beats_synchronous_under_scarce_memory() {
        // The Fig. 2 motivation: scarce memory hurts synchronous INA far
        // more because statistical INA falls back to the PS.
        let scarce = 64;
        let mk = |mode| SwitchConfig {
            pool_slots: scarce,
            mode,
            ..SwitchConfig::default()
        };
        let run = |mode| {
            let mut sim = PacketSim::new(mk(mode));
            sim.add_job(spec(0, 2, None));
            let r = sim.run(0.05);
            r.per_job[0].goodput_bits
        };
        let stat = run(MemoryMode::Statistical);
        let sync = run(MemoryMode::Synchronous);
        assert!(
            stat > sync * 2.0,
            "statistical {stat} should dominate synchronous {sync}"
        );
    }

    #[test]
    fn iterative_jobs_finish_and_record_jct() {
        let mut sim = PacketSim::new(SwitchConfig::default());
        sim.add_job(PacketJobSpec {
            iterations: 5,
            compute_time_s: 0.001,
            ..spec(0, 2, None)
        });
        let report = sim.run(2.0);
        let s = &report.per_job[0];
        assert_eq!(s.iterations_done, 5);
        let finish = s.finish_s.expect("job finished");
        assert!(finish > 0.0 && finish < 2.0);
    }

    #[test]
    fn compute_phase_releases_memory_to_the_other_job() {
        // Job 0 computes most of the time; job 1 streams continuously.
        // With a pool sized for one window, job 1 should aggregate well
        // while job 0 computes (the Fig. 14b turn-taking effect).
        let config = fig14_config(1.0, 10.0);
        let mut sim = PacketSim::new(config);
        sim.add_job(PacketJobSpec {
            compute_time_s: 0.01,
            gradient_gbits: 0.05,
            ..spec(0, 2, Some(10.0))
        });
        sim.add_job(spec(1, 2, Some(10.0)));
        let report = sim.run(0.2);
        let busy = report.per_job[1].aggregation_ratio();
        assert!(busy > 0.6, "turn-taking should lift ratio, got {busy}");
    }

    #[test]
    fn aimd_converges_toward_link_rate_with_full_aggregation() {
        let mut sim = PacketSim::new(SwitchConfig::default());
        sim.add_job(spec(0, 2, None));
        let report = sim.run(0.3);
        let gbps = report.per_job[0].mean_goodput_gbps(report.duration_s);
        // Full aggregation: the PS link admits a full window; AIMD should
        // reach a large fraction of 100 Gbps.
        assert!(gbps > 50.0, "goodput {gbps}");
    }

    #[test]
    fn delayed_start_keeps_job_idle() {
        let mut sim = PacketSim::new(SwitchConfig::default());
        sim.add_job(PacketJobSpec {
            start_s: 10.0,
            ..spec(0, 2, Some(10.0))
        });
        let report = sim.run(0.05);
        assert_eq!(report.per_job[0].goodput_bits, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_fan_in_is_rejected() {
        let mut sim = PacketSim::new(SwitchConfig::default());
        sim.add_job(spec(0, 0, None));
    }

    #[test]
    fn final_partial_bucket_uses_its_actual_span() {
        // 205 rounds -> bucket_rounds = 2, so the last bucket covers one
        // round. A steady paced stream must report the same goodput in
        // the final (short) bucket as in the full ones.
        let config = SwitchConfig::default();
        let rtt_s = config.rtt_us * 1e-6;
        let mut sim = PacketSim::new(config);
        sim.add_job(spec(0, 2, Some(10.0)));
        let report = sim.run(205.0 * rtt_s);
        assert_eq!(report.rounds, 205);
        let series = &report.per_job[0].goodput_series;
        let first = series[0].1;
        let last = series.last().unwrap().1;
        assert!(
            (last - first).abs() < 0.5,
            "short final bucket misscaled: {first} vs {last}"
        );
    }
}
