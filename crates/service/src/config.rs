//! Service tunables.

use netpack_placement::NetPackConfig;
use std::time::Duration;

/// Tunables of the placement service (see the [crate docs](crate) for the
/// architecture). A plain typed config: the library reads no environment
/// variable, so a binary that wants `NETPACK_SERVICE_*` knobs parses them
/// itself and fills the fields (`bench_service` does for the mode and the
/// event log).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Smallest command batch the drain loop settles for (default 1).
    pub min_batch: usize,
    /// Hard cap on commands drained per batch (default 256).
    pub max_batch: usize,
    /// Target upper bound on the placement work of one batch; the
    /// adaptive limit divides this by the observed per-job cost
    /// (default 16000 µs). The default is throughput-leaning: training
    /// jobs run for hours, so a placement decision a few milliseconds
    /// later is immaterial, while small batches pay the per-pass fixed
    /// cost (pending sort, knapsack admission, estimator-tail reconcile)
    /// per handful of jobs. Tighten it for latency-sensitive deployments.
    pub latency_budget: Duration,
    /// Pending-queue backpressure bound: submissions beyond this are
    /// rejected and counted (default 65536).
    pub queue_cap: usize,
    /// Command-channel depth in threaded mode; a full channel pushes
    /// back on submitters (default 1024).
    pub channel_cap: usize,
    /// Batching window of the threaded drain loop: after the first
    /// command of a batch arrives, the service thread keeps sleeping up
    /// to this long while the batch is still below the adaptive limit,
    /// so trickling submissions coalesce into one placement pass instead
    /// of a pass per wakeup (default 8000 µs — half the latency budget;
    /// 0 disables gathering).
    pub gather: Duration,
    /// Deterministic mode: batch sizing ignores wall-clock cost so
    /// identical command streams drain identically, making the event log
    /// byte-reproducible.
    pub deterministic: bool,
    /// Record one event-log line per submit/place/defer/complete/cancel.
    /// Off by default: a million-job bench would otherwise spend its time
    /// formatting strings.
    pub event_log: bool,
    /// Additive value bump for every deferred job, re-applied each pass —
    /// the same starvation-avoidance aging the `JobManager` uses.
    pub aging_value_bump: f64,
    /// Inert (default 1): the service places on one thread and reads no
    /// worker count. The field stays only because the benchmark adapter
    /// sets and echoes it; ROADMAP item 1(d) moves that pinning off it and
    /// deletes it. Nothing else sets it.
    pub threads: usize,
    /// Placer configuration.
    pub placer: NetPackConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            min_batch: 1,
            max_batch: 256,
            latency_budget: Duration::from_micros(16_000),
            queue_cap: 65_536,
            channel_cap: 1_024,
            gather: Duration::from_micros(8_000),
            deterministic: false,
            event_log: false,
            aging_value_bump: 0.5,
            threads: 1,
            placer: NetPackConfig::default(),
        }
    }
}

/// Commands the drain loop accepts before placing the next batch: the
/// latency budget divided by the observed per-job placement cost, clamped
/// to `[min_batch, max_batch]`. With no cost estimate yet — or in
/// deterministic mode, where wall-clock must not steer behavior — the
/// limit is `max_batch`, so batch size is then governed purely by queue
/// depth (the drain never waits for commands that aren't there).
pub fn adaptive_batch_limit(cost_ewma_s: f64, cfg: &ServiceConfig) -> usize {
    // NaN and zero both mean "no usable estimate yet".
    let no_estimate = !cost_ewma_s.is_finite() || cost_ewma_s <= 0.0;
    if cfg.deterministic || no_estimate {
        return cfg.max_batch;
    }
    let budget_jobs = cfg.latency_budget.as_secs_f64() / cost_ewma_s;
    let floor = cfg.min_batch.max(1).min(cfg.max_batch);
    if budget_jobs >= cfg.max_batch as f64 {
        cfg.max_batch
    } else {
        (budget_jobs as usize).clamp(floor, cfg.max_batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(min: usize, max: usize, budget_us: u64) -> ServiceConfig {
        ServiceConfig {
            min_batch: min,
            max_batch: max,
            latency_budget: Duration::from_micros(budget_us),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn limit_scales_inversely_with_cost() {
        let c = cfg(4, 512, 1_000); // 1 ms budget
        // 10 µs/job -> 100 jobs fit the budget.
        assert_eq!(adaptive_batch_limit(10e-6, &c), 100);
        // 2 µs/job -> 500 jobs.
        assert_eq!(adaptive_batch_limit(2e-6, &c), 500);
    }

    #[test]
    fn limit_clamps_to_bounds_and_handles_no_estimate() {
        let c = cfg(4, 512, 1_000);
        assert_eq!(adaptive_batch_limit(0.0, &c), 512, "no estimate yet");
        assert_eq!(adaptive_batch_limit(f64::NAN, &c), 512, "NaN treated as none");
        assert_eq!(adaptive_batch_limit(1.0, &c), 4, "cost above budget -> min");
        assert_eq!(adaptive_batch_limit(1e-12, &c), 512, "tiny cost -> max");
    }

    #[test]
    fn deterministic_mode_ignores_wall_clock_cost() {
        let mut c = cfg(4, 512, 1_000);
        c.deterministic = true;
        assert_eq!(adaptive_batch_limit(1.0, &c), 512);
        assert_eq!(adaptive_batch_limit(1e-9, &c), 512);
    }
}
