//! Lightweight perf counters and phase timers for placement-time profiling.
//!
//! The placement fast path (incremental water-filling, the persistent
//! server index) is justified by numbers, so the scorer records how much
//! work it did — water-fill invocations, cache hits, candidate plans scored — and
//! how long each phase took. [`PerfCounters`] is that recording surface:
//! a set of named monotonic counters plus named wall-clock timers, rendered
//! through the same [`TextTable`](crate::TextTable) the figure binaries
//! already use so before/after numbers land next to the benchmark output.
//!
//! Names are free-form `&'static str`s; `BTreeMap` storage keeps render
//! order deterministic. The struct is plain data — cloning snapshots it,
//! [`merge`](PerfCounters::merge) folds one snapshot into another (used to
//! aggregate per-batch counters into a run total).
//!
//! # Example
//!
//! ```
//! use netpack_metrics::PerfCounters;
//! use std::time::Duration;
//!
//! let mut perf = PerfCounters::new();
//! perf.incr("waterfill_solves", 3);
//! perf.incr("cache_hits", 5);
//! let answer = perf.time("scoring", || 6 * 7);
//! assert_eq!(answer, 42);
//! assert_eq!(perf.counter("waterfill_solves"), 3);
//! assert_eq!(perf.timer_count("scoring"), 1);
//! let rendered = perf.to_table().render();
//! assert!(rendered.contains("cache_hits"));
//! assert!(rendered.contains("scoring"));
//! ```

use crate::hist::LatencyHistogram;
use crate::TextTable;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A started wall-clock timer.
///
/// This is the single sanctioned way to read the monotonic clock in this
/// workspace: `netpack-lint` rule D2 forbids `Instant::now`/`SystemTime`
/// everywhere outside this module, so perf-timer blocks in the simulators
/// and the placer go through [`Stopwatch::start`] instead. Keeping every
/// clock read behind one type makes the determinism audit trivial — wall
/// time may only ever feed [`PerfCounters`]-style reporting, never
/// simulation state.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Wall-clock time elapsed since [`start`](Self::start).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in seconds as `f64` (convenience for report tables).
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// End the phase running since the last lap (or [`start`](Self::start))
    /// and begin the next one: the time it took, for one clock read where
    /// two consecutive phases meet. Lapping between two timed phases and
    /// dropping the result leaves the gap out of both.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let span = now - self.start;
        self.start = now;
        span
    }

    /// Time from `earlier` to this stopwatch's last lap: the span of an
    /// enclosing phase that began where `earlier` stood and ends at that
    /// lap, with no clock read of its own.
    #[must_use]
    pub fn since(&self, earlier: Stopwatch) -> Duration {
        self.start - earlier.start
    }
}

/// Named monotonic counters and wall-clock phase timers.
///
/// The module docs of `perf.rs` give the intended use. All operations are
/// infallible; reading a name that was never written returns zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfCounters {
    counters: BTreeMap<&'static str, u64>,
    timers: BTreeMap<&'static str, TimerSlot>,
    /// Named latency distributions (p50/p99/p999), fed by
    /// [`record_latency`](Self::record_latency). Unlike timers, which
    /// keep only totals, these answer percentile queries.
    hists: BTreeMap<&'static str, LatencyHistogram>,
}

/// One timer's total and interval count — what [`PerfCounters`] keeps per
/// timer name, as a plain value a hot loop can add to without a name
/// lookup and fold in once with [`PerfCounters::record_slot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerSlot {
    total: Duration,
    count: u64,
}

impl TimerSlot {
    /// Add one interval.
    pub fn add(&mut self, elapsed: Duration) {
        self.total += elapsed;
        self.count += 1;
    }

    /// Intervals added so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl PerfCounters {
    /// An empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to the counter `name` (creating it at zero).
    pub fn incr(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Current value of counter `name` (zero if never incremented).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Run `f`, recording its wall-clock time under the timer `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let watch = Stopwatch::start();
        let out = f();
        self.record(name, watch.elapsed());
        out
    }

    /// Fold an externally-measured duration into the timer `name`.
    pub fn record(&mut self, name: &'static str, elapsed: Duration) {
        self.timers.entry(name).or_default().add(elapsed);
    }

    /// Fold the intervals of `slot` into the timer `name`, as that many
    /// [`record`](Self::record) calls would. An empty slot creates nothing.
    pub fn record_slot(&mut self, name: &'static str, slot: TimerSlot) {
        if slot.count > 0 {
            let mine = self.timers.entry(name).or_default();
            mine.total += slot.total;
            mine.count += slot.count;
        }
    }

    /// Total wall-clock accumulated under the timer `name`.
    pub fn timer_total(&self, name: &'static str) -> Duration {
        self.timers.get(name).map(|s| s.total).unwrap_or_default()
    }

    /// Number of intervals recorded under the timer `name`.
    pub fn timer_count(&self, name: &'static str) -> u64 {
        self.timers.get(name).map(|s| s.count).unwrap_or(0)
    }

    /// Record one latency sample into the histogram `name` (creating it
    /// empty). Durations are bucketed in nanoseconds with ~3% relative
    /// error — see [`LatencyHistogram`].
    pub fn record_latency(&mut self, name: &'static str, elapsed: Duration) {
        self.hists.entry(name).or_default().record_duration(elapsed);
    }

    /// The latency histogram `name`, if any sample was recorded under it.
    pub fn latency(&self, name: &'static str) -> Option<&LatencyHistogram> {
        self.hists.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.timers.is_empty() && self.hists.is_empty()
    }

    /// Reset every counter, timer, and histogram while keeping the instance.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.timers.clear();
        self.hists.clear();
    }

    /// Fold `other`'s counters, timers, and histograms into `self`.
    pub fn merge(&mut self, other: &PerfCounters) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, &slot) in &other.timers {
            self.record_slot(name, slot);
        }
        for (name, hist) in &other.hists {
            self.hists.entry(name).or_default().merge(hist);
        }
    }

    /// Render every counter and timer as a [`TextTable`] with columns
    /// `metric | value | count | mean`. Counters fill only `value`;
    /// timers report total milliseconds, interval count, and mean
    /// microseconds per interval.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["metric", "value", "count", "mean"]);
        for (name, v) in &self.counters {
            t.row(vec![
                (*name).to_string(),
                v.to_string(),
                String::new(),
                String::new(),
            ]);
        }
        for (name, slot) in &self.timers {
            let total_ms = slot.total.as_secs_f64() * 1e3;
            let mean_us = if slot.count == 0 {
                0.0
            } else {
                slot.total.as_secs_f64() * 1e6 / slot.count as f64
            };
            t.row(vec![
                format!("{name} (ms)"),
                format!("{total_ms:.3}"),
                slot.count.to_string(),
                format!("{mean_us:.1} us"),
            ]);
        }
        for (name, h) in &self.hists {
            let us = |ns: u64| ns as f64 / 1e3;
            t.row(vec![
                format!("{name} p50/p99/p999 (us)"),
                format!("{:.1}/{:.1}/{:.1}", us(h.p50()), us(h.p99()), us(h.p999())),
                h.count().to_string(),
                format!("{:.1} us", h.mean() / 1e3),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut p = PerfCounters::new();
        assert!(p.is_empty());
        assert_eq!(p.counter("x"), 0);
        p.incr("x", 2);
        p.incr("x", 3);
        assert_eq!(p.counter("x"), 5);
        assert!(!p.is_empty());
        p.clear();
        assert!(p.is_empty());
    }

    #[test]
    fn timers_record_count_and_total() {
        let mut p = PerfCounters::new();
        let out = p.time("phase", || 7);
        assert_eq!(out, 7);
        p.record("phase", Duration::from_millis(2));
        assert_eq!(p.timer_count("phase"), 2);
        assert!(p.timer_total("phase") >= Duration::from_millis(2));
        assert_eq!(p.timer_count("absent"), 0);
        assert_eq!(p.timer_total("absent"), Duration::ZERO);
    }

    #[test]
    fn merge_folds_both_kinds() {
        let mut a = PerfCounters::new();
        a.incr("hits", 1);
        a.record("solve", Duration::from_millis(1));
        let mut b = PerfCounters::new();
        b.incr("hits", 4);
        b.incr("misses", 2);
        b.record("solve", Duration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.counter("hits"), 5);
        assert_eq!(a.counter("misses"), 2);
        assert_eq!(a.timer_count("solve"), 2);
        assert_eq!(a.timer_total("solve"), Duration::from_millis(4));
    }

    #[test]
    fn stopwatch_measures_monotonic_time() {
        let w = Stopwatch::start();
        let a = w.elapsed();
        let b = w.elapsed();
        assert!(b >= a);
        assert!(w.elapsed_s() >= 0.0);
    }

    /// Laps tile the time from the start: an enclosing span read off with
    /// `since` is the sum of the laps inside it.
    #[test]
    fn laps_split_one_span_between_phases() {
        let mut w = Stopwatch::start();
        let outer = w;
        std::thread::sleep(Duration::from_millis(1));
        let first = w.lap();
        let second = w.lap();
        assert!(first >= Duration::from_millis(1));
        assert_eq!(w.since(outer), first + second);
        let mut slot = TimerSlot::default();
        slot.add(first);
        slot.add(second);
        let mut p = PerfCounters::new();
        p.record_slot("empty", TimerSlot::default());
        assert!(p.is_empty(), "an empty slot creates no timer");
        p.record_slot("phase", slot);
        p.record("phase", first);
        assert_eq!((p.timer_count("phase"), slot.count()), (3, 2));
        assert_eq!(p.timer_total("phase"), first + w.since(outer));
    }

    #[test]
    fn latency_histograms_record_merge_and_render() {
        let mut p = PerfCounters::new();
        assert!(p.latency("place").is_none());
        p.record_latency("place", Duration::from_micros(100));
        p.record_latency("place", Duration::from_micros(300));
        let h = p.latency("place").unwrap();
        assert_eq!(h.count(), 2);
        assert!(h.min().unwrap() >= 100_000);
        let mut q = PerfCounters::new();
        q.record_latency("place", Duration::from_micros(200));
        p.merge(&q);
        assert_eq!(p.latency("place").unwrap().count(), 3);
        let rendered = p.to_table().render();
        assert!(rendered.contains("place p50/p99/p999 (us)"));
        p.clear();
        assert!(p.is_empty());
    }

    #[test]
    fn table_renders_counters_and_timers() {
        let mut p = PerfCounters::new();
        p.incr("plans_scored", 12);
        p.record("scoring", Duration::from_micros(1500));
        let rendered = p.to_table().render();
        assert!(rendered.contains("plans_scored"));
        assert!(rendered.contains("12"));
        assert!(rendered.contains("scoring (ms)"));
    }
}
