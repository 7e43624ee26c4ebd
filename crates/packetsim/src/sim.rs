//! The per-RTT packet simulation loop.
//!
//! # Fast path
//!
//! [`PacketSim::run`] is the only production loop; no option selects
//! another. It differs from the literal per-packet loop in two ways:
//!
//! - **Collision counting** — with [`Addressing::JobOffset`] a job's
//!   round window is a contiguous arc `[base + psn, base + psn + window)`
//!   on the slot ring, so the per-packet `slot_owner` stamping collapses
//!   to interval-overlap arithmetic: a job aggregates exactly the slots of
//!   its arc not already claimed by jobs processed earlier in the round
//!   ([`RingOccupancy`]), O(jobs²) per round instead of O(Σ window).
//!   [`Addressing::HashPerPacket`] keeps the exact per-packet loop (each
//!   PSN hashes to an unrelated slot, so there is no arc structure to
//!   exploit) but still reuses the epoch-stamped table without clearing.
//! - **Round batching** — when no job can change phase, finish an
//!   iteration, or cross a goodput bucket within the next K rounds, and
//!   every sender's window and collision outcome are round-invariant
//!   (see [`PacketSim::try_batch`]), all counters advance K rounds at
//!   once. Integer counters multiply exactly; the two float goodput
//!   accumulators go through [`add_cycle`], which proves the repeated
//!   additions exact (integral partial sums below 2⁵³) before replacing
//!   them with a closed form.
//!
//! Both keep the report *bit-identical* to the literal loop, which stays
//! in the library as the hidden oracle `PacketSim::run_reference`: every
//! packet stamped, one round at a time. The
//! `fast_path_is_bit_identical_to_scratch` property test, the root
//! `oracles` test and the `fig14_aggregation_ratio` smoke call it.
//!
//! [`PacketSimReport::perf`] records the work: `rounds_simulated`,
//! `rounds_stepped`, `rounds_batched`, `batches`, `packets_modeled`,
//! `packets_touched` counters and a `run` wall-clock timer.

use crate::{JobStats, PacketSimReport};
use netpack_metrics::PerfCounters;
use netpack_topology::JobId;
use netpack_metrics::Stopwatch;

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

/// How a `(job, PSN)` group is addressed to an aggregator slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Addressing {
    /// `index = base(job) + PSN (mod pool)`: sequential per job, so a job
    /// never collides with itself (ATP's streaming behaviour; default).
    #[default]
    JobOffset,
    /// `index = Hash(job, PSN) (mod pool)`: independent uniform hashing,
    /// which adds birthday-problem self-collisions.
    HashPerPacket,
}

/// Switch and link configuration for the packet simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    /// Aggregator slots in the switch memory pool.
    pub pool_slots: usize,
    /// Memory multiplexing mode.
    pub mode: MemoryMode,
    /// Slot addressing scheme.
    pub addressing: Addressing,
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
            addressing: Addressing::default(),
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
    /// Slot base for `Addressing::JobOffset`.
    base: usize,
    /// Fixed region `(offset, size)` in synchronous mode.
    region: (usize, usize),
    stats: JobStats,
    goodput_bucket_bits: f64,
}

/// Sorted, disjoint, half-open occupied intervals over the slot ring —
/// the fast path's replacement for per-packet `slot_owner` stamping.
///
/// A [`Addressing::JobOffset`] window is a contiguous arc on the ring, so
/// per-round contention reduces to: claim each arc in processing order,
/// counting how many of its slots were still free. Arcs longer than the
/// pool are clamped first (the extra packets revisit slots and always
/// fall back, exactly as the stamping loop behaves).
#[derive(Debug, Default)]
struct RingOccupancy {
    segs: Vec<(usize, usize)>,
}

impl RingOccupancy {
    fn clear(&mut self) {
        self.segs.clear();
    }

    /// Claim the arc of `len` (`<= pool`) slots starting at `start`,
    /// returning how many were previously free.
    fn claim_arc(&mut self, start: usize, len: usize, pool: usize) -> usize {
        debug_assert!(len <= pool && start < pool.max(1));
        if len == 0 {
            return 0;
        }
        let end = start + len;
        if end <= pool {
            self.claim_segment(start, end)
        } else {
            self.claim_segment(start, pool) + self.claim_segment(0, end - pool)
        }
    }

    /// Claim the linear segment `[lo, hi)`, returning its free-slot count.
    fn claim_segment(&mut self, lo: usize, hi: usize) -> usize {
        let mut covered = 0;
        let mut i = 0;
        while i < self.segs.len() && self.segs[i].1 < lo {
            i += 1;
        }
        let mut j = i;
        let mut new_lo = lo;
        let mut new_hi = hi;
        while j < self.segs.len() && self.segs[j].0 <= hi {
            let (a, b) = self.segs[j];
            covered += hi.min(b).saturating_sub(lo.max(a));
            new_lo = new_lo.min(a);
            new_hi = new_hi.max(b);
            j += 1;
        }
        self.segs.splice(i..j, std::iter::once((new_lo, new_hi)));
        hi - lo - covered
    }
}

/// Work counters accumulated by the hot loop (folded into
/// [`PerfCounters`] once per run, so the loop never touches a map).
#[derive(Debug, Default, Clone, Copy)]
struct PerfAcc {
    rounds_stepped: u64,
    rounds_batched: u64,
    batches: u64,
    packets_modeled: u64,
    packets_touched: u64,
}

/// One sender's per-round transmission outcome, as observed over one
/// rotation period by the batcher.
#[derive(Debug, Clone, Copy)]
struct RoundOutcome {
    aggregated: u64,
    fallback: u64,
    acked: f64,
    acked_whole: u64,
}

/// Accumulate `k` rounds of the cyclic per-round increments `vals` onto
/// `acc`, bit-identical to adding them one round at a time.
///
/// When `acc` and every increment are non-negative integers and the grand
/// total stays at or below 2⁵³, every partial sum is an exactly
/// representable integer, so each float addition is exact and the whole
/// sequence equals the closed form. Otherwise the addition sequence is
/// replayed literally — still O(k), but k float additions, not k windows
/// of packet work.
fn add_cycle(acc: f64, vals: &[f64], k: u64) -> f64 {
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    let period = vals.len() as u64;
    debug_assert!(period > 0 && k.is_multiple_of(period));
    if acc >= 0.0 && acc.fract() == 0.0 && vals.iter().all(|v| *v >= 0.0 && v.fract() == 0.0) {
        let total = acc + vals.iter().sum::<f64>() * (k / period) as f64;
        if total <= MAX_EXACT {
            return total;
        }
    }
    let mut a = acc;
    for t in 0..k {
        a += vals[(t % period) as usize];
    }
    a
}

/// The packet-level simulator: one statistical-INA (or synchronous-INA)
/// switch, its aggregator pool, and a set of iterative training jobs.
#[derive(Debug, Clone)]
pub struct PacketSim {
    config: SwitchConfig,
    jobs: Vec<JobState>,
    /// Slot reservation table for the current round: stamped with the
    /// round number to avoid clearing each round. Used by
    /// `HashPerPacket` addressing and by the per-packet reference.
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
        self.run_rounds(duration_s, true)
    }

    /// The oracle [`run`](Self::run) is held to: the literal loop, every
    /// packet stamped into `slot_owner`, one round at a time. Bit-identical
    /// report, far slower; tests and the `fig14_aggregation_ratio` smoke
    /// call it, nothing selects it.
    #[doc(hidden)]
    pub fn run_reference(&mut self, duration_s: f64) -> PacketSimReport {
        self.run_rounds(duration_s, false)
    }

    /// The round loop. `fast` counts `JobOffset` arcs instead of stamping
    /// packets and batches round-invariant stretches.
    fn run_rounds(&mut self, duration_s: f64, fast: bool) -> PacketSimReport {
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
        let mut ring = RingOccupancy::default();
        let mut acc = PerfAcc::default();

        let mut local_round = 0u64;
        let mut last_flush = 0u64;
        while local_round < rounds {
            let batched = if fast {
                self.try_batch(
                    local_round,
                    rounds,
                    bucket_rounds,
                    bdp,
                    payload_bits,
                    rtt_s,
                    &mut ring,
                    &mut acc,
                )
            } else {
                0
            };
            if batched > 0 {
                local_round += batched;
            } else {
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
                ring.clear();
                for k in 0..self.jobs.len() {
                    let ji = (k + rotation) % self.jobs.len();
                    self.step_job(ji, round, bdp, payload_bits, rtt_s, now_s, fast, &mut ring, &mut acc);
                }
                local_round += 1;
                acc.rounds_stepped += 1;
            }

            // Goodput sampling. A batch never crosses a bucket boundary,
            // so at most one flush is due here; the bucket's span is the
            // rounds it actually covers (the final bucket can be short).
            if local_round.is_multiple_of(bucket_rounds) || local_round == rounds {
                let span_s = (local_round - last_flush) as f64 * rtt_s;
                last_flush = local_round;
                let now_s = self.round as f64 * rtt_s;
                for job in self.jobs.iter_mut() {
                    let gbps = job.goodput_bucket_bits / span_s / 1e9;
                    job.stats.goodput_series.push((now_s, gbps));
                    job.goodput_bucket_bits = 0.0;
                }
            }
        }

        let mut perf = PerfCounters::new();
        perf.incr("rounds_simulated", rounds);
        perf.incr("rounds_stepped", acc.rounds_stepped);
        perf.incr("rounds_batched", acc.rounds_batched);
        perf.incr("batches", acc.batches);
        perf.incr("packets_modeled", acc.packets_modeled);
        perf.incr("packets_touched", acc.packets_touched);
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

    /// The window a communicating job would send this round *before* the
    /// remaining-groups cap: `min(pacing, BDP)` and, in synchronous mode,
    /// the job's fixed region.
    fn free_window(&self, job: &JobState, bdp: usize) -> Option<usize> {
        let rate_window = match job.spec.target_gbps {
            Some(rate) => self.config.rate_to_pkts(rate),
            None => job.cwnd.floor() as usize,
        };
        let mut w = rate_window.min(bdp);
        if self.config.mode == MemoryMode::Synchronous {
            w = w.min(job.region.1);
        }
        (w > 0).then_some(w)
    }

    /// Try to advance many rounds at once. Returns the number of rounds
    /// batched (0 = not batchable right now; the caller steps one exact
    /// round instead).
    ///
    /// A batch of K rounds is sound — bit-identical to K exact rounds —
    /// when, over the whole span:
    ///
    /// 1. no phase transition fires: no waiting job's start time is
    ///    reached, every computing job has more than K rounds left, and
    ///    no sender's iteration can end (its `remaining_groups` stays
    ///    strictly above its window);
    /// 2. no goodput bucket boundary is crossed (K is clamped to the next
    ///    flush);
    /// 3. every sender's window is round-invariant: paced, or AIMD pinned
    ///    at the BDP with an uncongested PS link (`delivered <= cap`, so
    ///    `cwnd` is a fixed point of the additive increase);
    /// 4. the collision outcome is round-invariant up to the processing
    ///    rotation: the pool is irrelevant (synchronous, empty pool, or
    ///    no senders), or all `JobOffset` arcs shift by the same amount
    ///    per round (equal `window % pool`), making overlaps
    ///    translation-invariant. The outcome then cycles with period
    ///    `n_jobs` (the rotation period), which K is a multiple of.
    ///    `HashPerPacket` slots depend on the PSN value itself — no
    ///    translation invariance — so it never batches.
    #[allow(clippy::too_many_arguments)]
    fn try_batch(
        &mut self,
        local_round: u64,
        rounds: u64,
        bucket_rounds: u64,
        bdp: usize,
        payload_bits: f64,
        rtt_s: f64,
        ring: &mut RingOccupancy,
        acc: &mut PerfAcc,
    ) -> u64 {
        let pool = self.config.pool_slots;
        let mode = self.config.mode;
        let n_jobs = self.jobs.len().max(1);

        // Horizon bounds that do not depend on transmission outcomes.
        let mut kmax = (bucket_rounds - local_round % bucket_rounds).min(rounds - local_round);
        let mut senders: Vec<(usize, usize)> = Vec::new(); // (job index, window)
        for (ji, job) in self.jobs.iter().enumerate() {
            match job.phase {
                Phase::Finished => {}
                Phase::Waiting => {
                    // Largest k with start_s > (round + k) * rtt_s, probed
                    // with the per-round loop's own float predicate.
                    let est = ((job.spec.start_s / rtt_s) - self.round as f64).floor();
                    let mut k = if est <= 0.0 { 0 } else { (est as u64).saturating_add(2) }
                        .min(kmax);
                    while k > 0 && job.spec.start_s <= (self.round + k) as f64 * rtt_s {
                        k -= 1;
                    }
                    kmax = kmax.min(k);
                }
                Phase::Computing { rounds_left } => kmax = kmax.min(rounds_left - 1),
                Phase::Communicating => {
                    let Some(w) = self.free_window(job, bdp) else {
                        continue; // sends nothing every round: a no-op
                    };
                    if job.spec.target_gbps.is_none() && job.cwnd != bdp as f64 {
                        return 0; // AIMD still ramping or backing off
                    }
                    if job.remaining_groups <= w as u64 {
                        return 0; // iteration boundary is near
                    }
                    senders.push((ji, w));
                }
            }
        }
        if kmax < 2 {
            return 0;
        }

        // Collision-outcome invariance (condition 4).
        let contended = mode == MemoryMode::Statistical && pool > 0 && !senders.is_empty();
        if contended {
            if self.config.addressing == Addressing::HashPerPacket {
                return 0;
            }
            let shift = senders[0].1 % pool;
            if senders.iter().any(|&(_, w)| w % pool != shift) {
                return 0;
            }
        }
        let period = if contended && senders.len() > 1 {
            n_jobs as u64
        } else {
            1
        };

        // One rotation period of outcomes. Arc positions are taken at the
        // current PSNs: later rounds shift every arc uniformly, which
        // preserves all overlaps, so only the rotation varies.
        let mut outcomes: Vec<Vec<RoundOutcome>> = vec![Vec::new(); senders.len()];
        for p in 0..period {
            let rotation = ((self.round + 1 + p) as usize) % n_jobs;
            ring.clear();
            for k in 0..self.jobs.len() {
                let ji = (k + rotation) % self.jobs.len();
                let Some(si) = senders.iter().position(|&(sj, _)| sj == ji) else {
                    continue;
                };
                let (_, w) = senders[si];
                let job = &self.jobs[ji];
                let (aggregated, fallback) = match mode {
                    MemoryMode::Synchronous => (w as u64, 0),
                    MemoryMode::Statistical if pool == 0 => (0, w as u64),
                    MemoryMode::Statistical => {
                        let s0 = (job.base + job.next_psn as usize) % pool;
                        let a = ring.claim_arc(s0, w.min(pool), pool) as u64;
                        (a, w as u64 - a)
                    }
                };
                let delivered = aggregated + fallback * job.spec.fan_in as u64;
                let cap = bdp as u64;
                if job.spec.target_gbps.is_none() && delivered > cap {
                    return 0; // cwnd would decrease: not steady
                }
                let sent = (aggregated + fallback) as f64;
                let acked = if delivered <= cap {
                    sent
                } else {
                    sent * cap as f64 / delivered as f64
                };
                outcomes[si].push(RoundOutcome {
                    aggregated,
                    fallback,
                    acked,
                    acked_whole: acked.floor() as u64,
                });
            }
        }

        // Iteration-end bound (condition 1): keep every sender's
        // remaining_groups strictly above its window throughout.
        for (si, &(ji, w)) in senders.iter().enumerate() {
            let maxdec = outcomes[si].iter().map(|o| o.acked_whole).max().unwrap_or(0);
            let headroom = self.jobs[ji].remaining_groups - w as u64 - 1;
            if let Some(k) = headroom.checked_div(maxdec) {
                kmax = kmax.min(k + 1);
            }
        }
        let k_total = (kmax / period) * period;
        if k_total < 2 {
            return 0;
        }

        // Apply K rounds at once.
        self.round += k_total;
        for job in self.jobs.iter_mut() {
            if let Phase::Computing { rounds_left } = job.phase {
                job.phase = Phase::Computing {
                    rounds_left: rounds_left - k_total,
                };
            }
        }
        let m = k_total / period;
        for (si, &(ji, w)) in senders.iter().enumerate() {
            let job = &mut self.jobs[ji];
            let os = &outcomes[si];
            let agg_sum: u64 = os.iter().map(|o| o.aggregated).sum();
            let fall_sum: u64 = os.iter().map(|o| o.fallback).sum();
            let dec_sum: u64 = os.iter().map(|o| o.acked_whole).sum();
            job.stats.aggregated_groups += m * agg_sum;
            job.stats.fallback_groups += m * fall_sum;
            job.next_psn += k_total * w as u64;
            job.remaining_groups -= m * dec_sum;
            // AIMD senders hold cwnd == BDP with delivered <= cap in every
            // sub-round, so the additive increase is a no-op; paced
            // senders never touch cwnd.
            let vals: Vec<f64> = os.iter().map(|o| o.acked * payload_bits).collect();
            job.goodput_bucket_bits = add_cycle(job.goodput_bucket_bits, &vals, k_total);
            job.stats.goodput_bits = add_cycle(job.stats.goodput_bits, &vals, k_total);
            acc.packets_modeled += k_total * w as u64;
        }
        acc.rounds_batched += k_total;
        acc.batches += 1;
        k_total
    }

    /// One job's transmissions for one round.
    #[allow(clippy::too_many_arguments)]
    fn step_job(
        &mut self,
        ji: usize,
        round: u64,
        bdp: usize,
        payload_bits: f64,
        rtt_s: f64,
        now_s: f64,
        fast: bool,
        ring: &mut RingOccupancy,
        acc: &mut PerfAcc,
    ) {
        let pool = self.config.pool_slots;
        let mode = self.config.mode;
        let addressing = self.config.addressing;
        let job = &mut self.jobs[ji];
        if job.phase != Phase::Communicating {
            return;
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
                return; // zero memory halts a synchronous job (§2.2)
            }
        }
        if window == 0 {
            return;
        }
        acc.packets_modeled += window as u64;

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
                } else if fast && addressing == Addressing::JobOffset {
                    // The window is a contiguous arc on the slot ring:
                    // count its free slots instead of stamping them.
                    let s0 = (job.base + job.next_psn as usize) % pool;
                    aggregated = ring.claim_arc(s0, window.min(pool), pool) as u64;
                    fallback = window as u64 - aggregated;
                } else {
                    // Slots release within the round; a slot is busy only
                    // if some group reserved it *this* round. `round`
                    // starts at 1, so the zero-initialized table is free.
                    let stamp = round;
                    acc.packets_touched += window as u64;
                    for k in 0..window {
                        let psn = job.next_psn + k as u64;
                        let slot = match addressing {
                            Addressing::JobOffset => (job.base + psn as usize) % pool,
                            Addressing::HashPerPacket => {
                                let mut h = psn
                                    .wrapping_mul(0x9E3779B97F4A7C15)
                                    .wrapping_add(job.base as u64);
                                h ^= h >> 31;
                                h = h.wrapping_mul(0xBF58476D1CE4E5B9);
                                h ^= h >> 27;
                                (h % pool as u64) as usize
                            }
                        };
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
            let done_all =
                job.spec.iterations > 0 && job.iterations_done >= job.spec.iterations;
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
            assert!(
                (y - x).abs() < 0.05,
                "PAT ratio {x}: aggregation ratio {y}"
            );
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
    fn hash_addressing_self_collides() {
        let config = SwitchConfig {
            addressing: Addressing::HashPerPacket,
            ..fig14_config(1.0, 10.0)
        };
        let mut sim = PacketSim::new(config);
        sim.add_job(spec(0, 2, Some(10.0)));
        let report = sim.run(0.05);
        let y = report.per_job[0].aggregation_ratio();
        // Birthday losses: measurably below the sequential ratio of ~1.0.
        assert!(y < 0.8, "expected hash collisions, ratio {y}");
        assert!(y > 0.4, "hashing should not collapse entirely, ratio {y}");
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
    fn fast_path_batches_the_steady_stream() {
        let mut sim = PacketSim::new(fig14_config(0.5, 10.0));
        sim.add_job(spec(0, 2, Some(10.0)));
        let report = sim.run(0.05);
        assert_eq!(
            report.perf.counter("rounds_batched") + report.perf.counter("rounds_stepped"),
            report.perf.counter("rounds_simulated")
        );
        assert!(
            report.perf.counter("rounds_batched") > report.perf.counter("rounds_stepped"),
            "a paced steady stream should mostly batch: {:?}",
            report.perf
        );
        assert_eq!(
            report.perf.counter("packets_touched"),
            0,
            "JobOffset fast path must not touch packets"
        );
    }

    #[test]
    fn scratch_path_touches_every_packet() {
        let mut sim = PacketSim::new(fig14_config(0.5, 10.0));
        sim.add_job(spec(0, 2, Some(10.0)));
        let report = sim.run_reference(0.05);
        assert_eq!(report.perf.counter("rounds_batched"), 0);
        assert_eq!(
            report.perf.counter("packets_touched"),
            report.perf.counter("packets_modeled")
        );
    }

    #[test]
    fn final_partial_bucket_uses_its_actual_span() {
        // 205 rounds -> bucket_rounds = 2, so the last bucket covers one
        // round. A steady paced stream must report the same goodput in
        // the final (short) bucket as in the full ones.
        for fast in [true, false] {
            let config = SwitchConfig::default();
            let rtt_s = config.rtt_us * 1e-6;
            let mut sim = PacketSim::new(config);
            sim.add_job(spec(0, 2, Some(10.0)));
            let report = sim.run_rounds(205.0 * rtt_s, fast);
            assert_eq!(report.rounds, 205);
            let series = &report.per_job[0].goodput_series;
            let first = series[0].1;
            let last = series.last().unwrap().1;
            assert!(
                (last - first).abs() < 0.5,
                "fast={fast}: short final bucket misscaled: {first} vs {last}"
            );
        }
    }

    #[test]
    fn ring_occupancy_counts_free_slots_and_wraps() {
        let mut ring = RingOccupancy::default();
        assert_eq!(ring.claim_arc(2, 4, 10), 4); // [2,6) all free
        assert_eq!(ring.claim_arc(4, 4, 10), 2); // [4,8): 4,5 busy
        assert_eq!(ring.claim_arc(8, 4, 10), 4); // wraps to [8,10)+[0,2)
        assert_eq!(ring.claim_arc(0, 10, 10), 0); // ring now full
        ring.clear();
        assert_eq!(ring.claim_arc(9, 3, 10), 3); // [9,10)+[0,2)
        assert_eq!(ring.claim_arc(1, 2, 10), 1); // 1 busy, 2 free
    }

    #[test]
    fn add_cycle_matches_sequential_addition() {
        // Integral fast branch.
        assert_eq!(add_cycle(10.0, &[3.0, 5.0], 6), 10.0 + 3.0 * 3.0 + 3.0 * 5.0);
        // Fractional values take the literal replay branch.
        let vals = [0.3, 0.7];
        let mut want = 1.5;
        for t in 0..8 {
            want += vals[t % 2];
        }
        assert_eq!(add_cycle(1.5, &vals, 8), want);
    }
}
