//! Job-trace synthesis: the paper's "Real", Poisson, and Normal traces.

use crate::{Job, ModelKind};
use netpack_topology::JobId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which of the three §6.1 trace families to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Production-like trace matching the published Microsoft Philly
    /// characteristics: GPU demands concentrated on small powers of two,
    /// heavy-tailed (log-normal) durations, bursty arrivals. Labelled
    /// "Real" in the paper's figures.
    Real,
    /// GPU demands drawn from a Poisson distribution (mean 4), exponential
    /// arrivals.
    Poisson,
    /// GPU demands drawn from a normal distribution (mean 8, std 4),
    /// exponential arrivals.
    Normal,
}

impl TraceKind {
    /// All trace kinds, in figure order.
    pub const ALL: [TraceKind; 3] = [TraceKind::Real, TraceKind::Poisson, TraceKind::Normal];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Real => "Real",
            TraceKind::Poisson => "Poisson",
            TraceKind::Normal => "Normal",
        }
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How inter-arrival times are drawn (see [`TraceSpec::open_loop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArrivalProcess {
    /// The family's own arrival shape: bursty for [`TraceKind::Real`]
    /// (production resubmissions and sweeps), plain exponential for the
    /// synthetic families. The default, and what every closed-batch
    /// experiment uses.
    #[default]
    FamilyDefault,
    /// Memoryless Poisson-process arrivals — i.i.d. exponential
    /// inter-arrival times with the spec's mean — for **every** trace
    /// family. This is the open-loop load the continuous placement
    /// service is benchmarked under: the arrival clock never waits on the
    /// system, so sustained throughput and latency percentiles are
    /// well-defined.
    OpenLoop,
}

/// Configuration for synthesizing a [`Trace`].
///
/// # Example
///
/// ```
/// use netpack_workload::{TraceKind, TraceSpec};
///
/// let trace = TraceSpec::new(TraceKind::Poisson, 50)
///     .seed(42)
///     .mean_interarrival_s(30.0)
///     .max_gpus(16)
///     .generate();
/// assert_eq!(trace.jobs().len(), 50);
/// assert!(trace.jobs().iter().all(|j| j.gpus <= 16));
/// ```
#[derive(Debug, Clone)]
pub struct TraceSpec {
    kind: TraceKind,
    jobs: usize,
    seed: u64,
    mean_interarrival_s: f64,
    duration_scale: f64,
    max_gpus: usize,
    arrivals: ArrivalProcess,
}

impl TraceSpec {
    /// Create a spec for `jobs` jobs of the given trace family.
    pub fn new(kind: TraceKind, jobs: usize) -> Self {
        TraceSpec {
            kind,
            jobs,
            seed: 1,
            mean_interarrival_s: 60.0,
            duration_scale: 1.0,
            max_gpus: 64,
            arrivals: ArrivalProcess::default(),
        }
    }

    /// Draw arrivals as an open-loop Poisson process
    /// ([`ArrivalProcess::OpenLoop`]) instead of the family default.
    /// Demands, models, and durations are unaffected for the synthetic
    /// families (they already use exponential arrivals, so only `Real`'s
    /// burst structure changes — and with it that family's RNG stream).
    pub fn open_loop(mut self) -> Self {
        self.arrivals = ArrivalProcess::OpenLoop;
        self
    }

    /// Seed the deterministic RNG (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Mean inter-arrival time in seconds (default 60).
    pub fn mean_interarrival_s(mut self, s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "inter-arrival must be >= 0");
        self.mean_interarrival_s = s;
        self
    }

    /// Multiply every job's target duration (and hence iteration count) by
    /// this factor (default 1.0). Useful to shorten experiments.
    pub fn duration_scale(mut self, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        self.duration_scale = scale;
        self
    }

    /// Clamp GPU demands to this maximum (default 64). Set it to the
    /// cluster's largest feasible job to avoid unplaceable requests.
    pub fn max_gpus(mut self, max: usize) -> Self {
        assert!(max >= 1, "max_gpus must be at least 1");
        self.max_gpus = max;
        self
    }

    /// Synthesize the trace. Deterministic for a given spec.
    pub fn generate(&self) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut jobs = Vec::with_capacity(self.jobs);
        let mut clock = 0.0f64;
        let mut burst_left = 0usize;
        for i in 0..self.jobs {
            // Arrivals: Real is bursty (several jobs at nearly the same
            // time, as resubmissions and sweeps do in production); the
            // synthetic traces use plain exponential arrivals.
            if self.mean_interarrival_s > 0.0 {
                match self.kind {
                    _ if self.arrivals == ArrivalProcess::OpenLoop => {
                        clock += sample_exp(&mut rng, self.mean_interarrival_s);
                    }
                    TraceKind::Real => {
                        if burst_left == 0 {
                            burst_left = rng.gen_range(1..=5);
                            clock += sample_exp(&mut rng, self.mean_interarrival_s * 2.0);
                        } else {
                            clock += sample_exp(&mut rng, self.mean_interarrival_s * 0.05);
                        }
                        burst_left -= 1;
                    }
                    _ => clock += sample_exp(&mut rng, self.mean_interarrival_s),
                }
            }
            let gpus = self.sample_gpus(&mut rng);
            let model = ModelKind::ALL[rng.gen_range(0..ModelKind::ALL.len())];
            let duration_s = self.sample_duration_s(&mut rng);
            // Convert the target duration into iterations assuming the
            // ideal (communication-free) iteration time; the realized JCT
            // then depends on placement, which is exactly what we measure.
            let iterations = (duration_s / model.compute_time_s()).ceil().max(1.0) as u64;
            jobs.push(
                Job::builder(JobId(i as u64), model, gpus)
                    .iterations(iterations)
                    .arrival_s(clock)
                    .value(1.0)
                    .build(),
            );
        }
        Trace { jobs }
    }

    fn sample_gpus(&self, rng: &mut StdRng) -> usize {
        let raw = match self.kind {
            TraceKind::Real => {
                // Published Philly demand profile: dominated by 1-8 GPU
                // jobs with a thin tail of large sweeps.
                let p: f64 = rng.gen();
                match p {
                    p if p < 0.45 => 1,
                    p if p < 0.60 => 2,
                    p if p < 0.80 => 4,
                    p if p < 0.92 => 8,
                    p if p < 0.975 => 16,
                    p if p < 0.995 => 32,
                    _ => 64,
                }
            }
            TraceKind::Poisson => sample_poisson(rng, 4.0).max(1) as usize,
            TraceKind::Normal => sample_normal(rng, 8.0, 4.0).round().max(1.0) as usize,
        };
        raw.clamp(1, self.max_gpus)
    }

    fn sample_duration_s(&self, rng: &mut StdRng) -> f64 {
        // Heavy-tailed log-normal durations for all traces (the synthetic
        // traces in the paper vary only the GPU-demand distribution).
        // Median ~= 8 min with a long tail, Philly-like.
        let ln = sample_normal(rng, (480.0f64).ln(), 1.1);
        (ln.exp() * self.duration_scale).clamp(30.0 * self.duration_scale, 86_400.0)
    }
}

/// A synthesized job trace, sorted by arrival time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    jobs: Vec<Job>,
}

impl Trace {
    /// Build a trace directly from jobs (sorted by arrival time).
    pub fn from_jobs(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        Trace { jobs }
    }

    /// The jobs, in arrival order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Total GPU demand across all jobs.
    pub fn total_gpu_demand(&self) -> usize {
        self.jobs.iter().map(|j| j.gpus).sum()
    }
}

/// Exponential sample with the given mean.
fn sample_exp(rng: &mut StdRng, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Standard Box-Muller normal sample.
fn sample_normal(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Knuth Poisson sample (fine for the small lambdas we use).
fn sample_poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = TraceSpec::new(TraceKind::Real, 200).seed(5).generate();
        let b = TraceSpec::new(TraceKind::Real, 200).seed(5).generate();
        let c = TraceSpec::new(TraceKind::Real, 200).seed(6).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_sorted_and_nonnegative() {
        for kind in TraceKind::ALL {
            let t = TraceSpec::new(kind, 300).seed(3).generate();
            let mut last = 0.0;
            for j in t.jobs() {
                assert!(j.arrival_s >= last, "{kind} arrivals must be monotone");
                last = j.arrival_s;
            }
        }
    }

    #[test]
    fn real_trace_demands_are_powers_of_two() {
        let t = TraceSpec::new(TraceKind::Real, 500).seed(11).generate();
        for j in t.jobs() {
            assert!(j.gpus.is_power_of_two(), "got {}", j.gpus);
        }
    }

    #[test]
    fn real_trace_is_dominated_by_small_jobs() {
        let t = TraceSpec::new(TraceKind::Real, 2000).seed(1).generate();
        let small = t.jobs().iter().filter(|j| j.gpus <= 8).count();
        assert!(small as f64 / 2000.0 > 0.85, "small fraction {small}/2000");
    }

    #[test]
    fn poisson_demands_center_near_lambda() {
        let t = TraceSpec::new(TraceKind::Poisson, 4000).seed(2).generate();
        let mean = t.jobs().iter().map(|j| j.gpus as f64).sum::<f64>() / t.jobs().len() as f64;
        assert!((mean - 4.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn normal_demands_center_near_mean() {
        let t = TraceSpec::new(TraceKind::Normal, 4000).seed(2).generate();
        let mean = t.jobs().iter().map(|j| j.gpus as f64).sum::<f64>() / t.jobs().len() as f64;
        assert!((mean - 8.0).abs() < 0.8, "mean {mean}");
    }

    #[test]
    fn max_gpus_clamps_demands() {
        let t = TraceSpec::new(TraceKind::Real, 1000)
            .seed(9)
            .max_gpus(8)
            .generate();
        assert!(t.jobs().iter().all(|j| j.gpus <= 8));
    }

    #[test]
    fn duration_scale_shrinks_iterations() {
        let long = TraceSpec::new(TraceKind::Real, 100).seed(4).generate();
        let short = TraceSpec::new(TraceKind::Real, 100)
            .seed(4)
            .duration_scale(0.1)
            .generate();
        let sum_long: u64 = long.jobs().iter().map(|j| j.iterations).sum();
        let sum_short: u64 = short.jobs().iter().map(|j| j.iterations).sum();
        assert!(sum_short < sum_long);
    }

    #[test]
    fn zero_interarrival_packs_all_jobs_at_time_zero() {
        let t = TraceSpec::new(TraceKind::Poisson, 40)
            .seed(2)
            .mean_interarrival_s(0.0)
            .generate();
        assert!(t.jobs().iter().all(|j| j.arrival_s == 0.0));
    }

    /// Regression pin for the open-loop arrival streams: the first 10
    /// arrivals of every family, for three seeds, as exact f64 bit
    /// patterns. Any change to the RNG draw order, the exponential
    /// sampler, or the clock accumulation shows up here — and would
    /// silently shift every service benchmark and its determinism gate.
    #[test]
    fn open_loop_arrivals_are_pinned_per_seed() {
        let pinned: &[(TraceKind, u64, [u64; 10])] = &[
            (
                TraceKind::Real,
                1,
                [
                    0x40410B8AB6026A5D,
                    0x40492A06164187DA,
                    0x405A2C02096E2A96,
                    0x406A81F19AA25818,
                    0x407772ED7600E03A,
                    0x40816BFFC0696AF0,
                    0x408262EAAB1D2C17,
                    0x408393E0C5CD19A6,
                    0x4083DB40EF3CD2B2,
                    0x40842F5356221999,
                ],
            ),
            (
                TraceKind::Real,
                7,
                [
                    0x404C42E82EDEAC88,
                    0x40617AC8653F072C,
                    0x40713E4AB655755C,
                    0x40737F35926C9B35,
                    0x4074F925855CC583,
                    0x40752001B9012737,
                    0x40753C1FC87375EF,
                    0x40771BBE80253AC2,
                    0x4078C262D103D32A,
                    0x407D0996065F7F48,
                ],
            ),
            (
                TraceKind::Real,
                42,
                [
                    0x4031F086D6B16635,
                    0x403A6AE857566146,
                    0x405E61FCF71A973C,
                    0x406B226AF5CEE563,
                    0x406B76272D37AE61,
                    0x407289801B72147B,
                    0x40736BE7C4316D1B,
                    0x40770CBA6D5A9879,
                    0x40796DC04C411DC9,
                    0x407DAF717924057A,
                ],
            ),
            (
                TraceKind::Poisson,
                1,
                [
                    0x40410B8AB6026A5D,
                    0x40545622178C339A,
                    0x405EDB976640FAE5,
                    0x405EE43FCED165EF,
                    0x4060F3C2ACC4B5E7,
                    0x4069EF8B6FB98A0C,
                    0x406A4142F80BF7A8,
                    0x407B6FF34600F7E2,
                    0x407D92FBC903E784,
                    0x407EFE16BC750DE1,
                ],
            ),
            (
                TraceKind::Poisson,
                7,
                [
                    0x404C42E82EDEAC88,
                    0x40617AC8653F072C,
                    0x4062833AA9E885AF,
                    0x4062D0F311314918,
                    0x406C4B5EC4E5BA3D,
                    0x4071C177F08CF902,
                    0x407262C0C1E6870D,
                    0x4074FED336D25A21,
                    0x4078D8300A66C6F7,
                    0x407913534FB8B6B4,
                ],
            ),
            (
                TraceKind::Poisson,
                42,
                [
                    0x4031F086D6B16635,
                    0x403F47E2692E6633,
                    0x4064EA8584EB1E6C,
                    0x406E875E8E979901,
                    0x4071A4B5263251D1,
                    0x4071C29228CBA19A,
                    0x40732F930B4FBB24,
                    0x407ED302AEECE3C7,
                    0x4083BFB15A0B88DB,
                    0x40844EE781788E0B,
                ],
            ),
            (
                TraceKind::Normal,
                1,
                [
                    0x40410B8AB6026A5D,
                    0x4044F879CD9CAE97,
                    0x40564C99A35955B7,
                    0x405C0BED940C3A60,
                    0x4067633DCDB50A76,
                    0x406B3EE978840F13,
                    0x406FD0FB5A6845FC,
                    0x4075513126A12EC4,
                    0x4075BCD332BA7FAB,
                    0x40793BCBF5404B79,
                ],
            ),
            (
                TraceKind::Normal,
                7,
                [
                    0x404C42E82EDEAC88,
                    0x40598580499DC1EE,
                    0x405ACDF62440DF06,
                    0x4060FF88E324AC11,
                    0x4061C46AA58B44C5,
                    0x4061FCA6C46FE236,
                    0x4072AB821CDFAE92,
                    0x4076474AAAF9CA75,
                    0x4076E8937C535880,
                    0x4078FE4C1A76DD0D,
                ],
            ),
            (
                TraceKind::Normal,
                42,
                [
                    0x4031F086D6B16635,
                    0x405B4E51F71248E3,
                    0x4062A73D17052854,
                    0x4072375D4EBD08A6,
                    0x407BF8D2B872FBC8,
                    0x407CDB3A61325468,
                    0x40839C7105BC11B0,
                    0x40860B81194E0704,
                    0x4087538FAE5071CA,
                    0x408E29F71FE80C54,
                ],
            ),
        ];
        for (kind, seed, bits) in pinned {
            let t = TraceSpec::new(*kind, 10).seed(*seed).open_loop().generate();
            let got: Vec<u64> = t.jobs().iter().map(|j| j.arrival_s.to_bits()).collect();
            assert_eq!(got, bits.to_vec(), "{kind} seed {seed}");
        }
    }

    /// The synthetic families already draw exponential inter-arrivals, so
    /// open-loop mode changes nothing for them (same RNG stream); Real's
    /// burst structure is replaced, so its trace must differ.
    #[test]
    fn open_loop_only_reshapes_real_arrivals() {
        for kind in [TraceKind::Poisson, TraceKind::Normal] {
            let closed = TraceSpec::new(kind, 100).seed(3).generate();
            let open = TraceSpec::new(kind, 100).seed(3).open_loop().generate();
            assert_eq!(closed, open, "{kind}");
        }
        let closed = TraceSpec::new(TraceKind::Real, 100).seed(3).generate();
        let open = TraceSpec::new(TraceKind::Real, 100)
            .seed(3)
            .open_loop()
            .generate();
        assert_ne!(closed, open);
    }

    #[test]
    fn from_jobs_sorts_by_arrival() {
        let j1 = Job::builder(JobId(0), ModelKind::AlexNet, 1)
            .arrival_s(10.0)
            .build();
        let j2 = Job::builder(JobId(1), ModelKind::AlexNet, 1)
            .arrival_s(5.0)
            .build();
        let t = Trace::from_jobs(vec![j1, j2]);
        assert_eq!(t.jobs()[0].id, JobId(1));
        assert_eq!(t.total_gpu_demand(), 2);
    }

    #[test]
    fn samplers_produce_reasonable_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let exp_mean: f64 = (0..n).map(|_| sample_exp(&mut rng, 3.0)).sum::<f64>() / n as f64;
        assert!((exp_mean - 3.0).abs() < 0.1, "exp mean {exp_mean}");
        let norm_mean: f64 = (0..n)
            .map(|_| sample_normal(&mut rng, 1.0, 2.0))
            .sum::<f64>()
            / n as f64;
        assert!((norm_mean - 1.0).abs() < 0.1, "normal mean {norm_mean}");
        let pois_mean: f64 = (0..n)
            .map(|_| sample_poisson(&mut rng, 6.0) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((pois_mean - 6.0).abs() < 0.1, "poisson mean {pois_mean}");
    }
}
