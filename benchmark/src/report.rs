//! Names, units and directions of every workload and metric; printing;
//! and the two-set comparison behind `run.sh --selfcheck`.
//!
//! `BENCHMARK.json` carries the same names plus the regression bounds;
//! `tests/contract.rs` keeps the two in step.

use crate::json::{self, Value};
use crate::sys::median;
use std::collections::BTreeMap;

/// `(name, unit, better)`.
pub type MetricSpec = (&'static str, &'static str, &'static str);

pub const WORKLOADS: [&str; 4] = [
    "service_saturate",
    "warehouse_batch",
    "dense_batch",
    "sim_sweep",
];

pub const END_TO_END: [MetricSpec; 6] = [
    ("jobs_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("cpu_s_per_kjob", "s", "lower"),
    ("comm_overhead_ratio", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

pub const PER_LAYER: [MetricSpec; 61] = [
    // service: in-thread ServiceCore replay of the service_saturate input.
    ("service.apply_ns", "ns", "lower"),
    ("service.place_pass_ns", "ns", "lower"),
    ("service.overhead_ns", "ns", "lower"),
    ("service.batches", "count", "lower"),
    ("service.mean_batch_jobs", "count", "higher"),
    ("service.max_queue_depth", "count", "lower"),
    ("service.deferrals", "count", "lower"),
    ("service.completed_pending", "count", "lower"),
    ("service.placed_share", "ratio", "higher"),
    ("service.latency_p99_ms", "ms", "lower"),
    ("service.latency_p999_ms", "ms", "lower"),
    // service runtime: the threaded front end on the same commands.
    ("service.runtime.send_block_ns", "ns", "lower"),
    ("service.runtime.threaded_vs_core_ratio", "ratio", "lower"),
    ("service.runtime.default_workers_ratio", "ratio", "lower"),
    ("service.runtime.paced_p50_us", "us", "lower"),
    ("service.runtime.paced_p99_us", "us", "lower"),
    ("bench.gen_late_p99_us", "us", "lower"),
    // placement, warm path (service input).
    ("placement.session_place_batch_ns", "ns", "lower"),
    ("placement.session_complete_ns", "ns", "lower"),
    ("placement.place_one_ns", "ns", "lower"),
    ("placement.single_scan_ns", "ns", "lower"),
    ("placement.knapsack_ns", "ns", "lower"),
    // placement, scan-bound (warehouse input) and topology.
    ("placement.class_build_ns", "ns", "lower"),
    ("placement.candidate_select_ns", "ns", "lower"),
    ("placement.filter_offer_ns", "ns", "lower"),
    ("placement.dp_candidates_offered", "count", "lower"),
    ("placement.dp_candidates_kept", "count", "lower"),
    ("placement.filter_keep_ratio", "ratio", "lower"),
    ("topology.cluster_new_ns", "ns", "lower"),
    ("topology.flat_new_ns", "ns", "lower"),
    // placement, scoring-bound (dense input).
    ("placement.ps_scoring_ns", "ns", "lower"),
    ("placement.worker_dp_ns", "ns", "lower"),
    ("placement.worker_dp_plans_ns", "ns", "lower"),
    ("placement.plans_considered", "count", "lower"),
    ("placement.ps_candidates_scored", "count", "lower"),
    ("placement.ina_enable_ns", "ns", "lower"),
    // waterfill (dense input and its placed set).
    ("waterfill.solve_ns", "ns", "lower"),
    ("waterfill.estimate_ns", "ns", "lower"),
    ("waterfill.push_ns", "ns", "lower"),
    ("waterfill.remove_ns", "ns", "lower"),
    ("waterfill.pop_ns", "ns", "lower"),
    ("waterfill.jobs_resolved", "count", "lower"),
    ("waterfill.jobs_reused", "count", "higher"),
    ("waterfill.reuse_ratio", "ratio", "higher"),
    // the parallel machinery (default workers on both batch inputs).
    ("placement.spec_rounds", "count", "lower"),
    ("placement.spec_scored", "count", "lower"),
    ("placement.spec_conflicts", "count", "lower"),
    ("placement.spec_waste_ratio", "ratio", "lower"),
    ("placement.mt_wall_ratio", "ratio", "lower"),
    // flowsim, core and workload (one sim sweep).
    ("flowsim.run_ns", "ns", "lower"),
    ("flowsim.events", "count", "lower"),
    ("flowsim.ns_per_event", "ns", "lower"),
    ("flowsim.heap_ops", "ns", "lower"),
    ("flowsim.heap_stale_ratio", "ratio", "lower"),
    ("flowsim.resolve_component_ns", "ns", "lower"),
    ("core.run_epoch_ns", "ns", "lower"),
    ("flowsim.wf_removes", "count", "lower"),
    ("workload.trace_generate_ns", "ns", "lower"),
    // the tracing itself, on the workload the run names.
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
    ("trace.repetition_wall_ns", "ns", "lower"),
];

/// One measured metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Pair `values` with `specs`, in spec order. A missing value is an error
/// naming the metric.
pub fn metrics(
    specs: &[MetricSpec],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<Metric>, String> {
    if let Some(extra) = values.keys().find(|k| !specs.iter().any(|s| s.0 == **k)) {
        return Err(format!("metric {extra} is not in the list"));
    }
    specs
        .iter()
        .map(|&(name, unit, _)| {
            values
                .get(name)
                .map(|&value| Metric { name, value, unit })
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect()
}

/// The contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Non-finite values have no JSON form; they only arise from a
            // failed run, which `correct` already reports.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Print every metric by name with its unit.
pub fn print_table(metrics: &[Metric]) {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!("  {:width$}  {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Samples per (workload, metric) of a file of `<workload> <result line>`
/// rows, as `run.sh` writes them.
fn samples(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (workload, result) = line
            .split_once(' ')
            .ok_or_else(|| format!("{path}: row without a workload"))?;
        let result = json::parse(result)?;
        if result.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("{path}: {workload} ran incorrectly"));
        }
        let Some(Value::Obj(fields)) = result.get("metrics") else {
            return Err(format!("{path}: {workload} has no metrics"));
        };
        for (name, metric) in fields {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: {name} has no value"))?;
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

/// `(name, bound, higher is better)` of the manifest's end-to-end metrics.
fn bounds(manifest_path: &str) -> Result<Vec<(String, f64, bool)>, String> {
    let text =
        std::fs::read_to_string(manifest_path).map_err(|e| format!("{manifest_path}: {e}"))?;
    let manifest = json::parse(&text)?;
    let specs = manifest.get("end_to_end").map(Value::as_arr).unwrap_or(&[]);
    Ok(specs
        .iter()
        .map(|spec| {
            (
                spec.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                spec.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                spec.get("better").and_then(Value::as_str) == Some("higher"),
            )
        })
        .collect())
}

/// Compare two sets of end-to-end runs against the bounds in the manifest.
/// Prints one row per (workload, metric); returns how many medians are
/// worse in the second set by more than the bound.
pub fn compare(manifest_path: &str, first: &str, second: &str) -> Result<usize, String> {
    let (a, b) = (samples(first)?, samples(second)?);
    let mut worse = 0usize;
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "change", "bound"
    );
    for (name, bound, higher) in bounds(manifest_path)? {
        for workload in WORKLOADS {
            let key = (workload.to_string(), name.clone());
            let (Some(x), Some(y)) = (a.get(&key), b.get(&key)) else {
                return Err(format!("{workload}/{name} missing from a set"));
            };
            let (x, y) = (median(x), median(y));
            // Positive = the second set is worse.
            let change = if higher { (x - y) / x } else { (y - x) / x };
            let flag = if change > bound { "WORSE" } else { "" };
            worse += usize::from(change > bound);
            println!(
                "{workload:<20} {name:<20} {x:>14.5} {y:>14.5} {:>+7.2}% {:>5.0}% {flag}",
                change * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(worse)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method).
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Print each (workload, metric) pair's median and the distance between
/// its quartiles as a share of the median, over the runs in `rows`;
/// returns how many spreads exceed a third of the metric's bound.
pub fn spread(manifest_path: &str, rows: &str) -> Result<usize, String> {
    let all = samples(rows)?;
    let mut wide = 0usize;
    println!(
        "{:<20} {:<20} {:>5} {:>14} {:>8} {:>6}",
        "workload", "metric", "runs", "median", "spread", "bound"
    );
    for (name, bound, _) in bounds(manifest_path)? {
        for workload in WORKLOADS {
            let Some(v) = all.get(&(workload.to_string(), name.clone())) else {
                continue;
            };
            if v.len() < 2 {
                return Err(format!("{workload}/{name}: a spread needs two runs"));
            }
            let (q1, q3) = quartiles(v);
            let m = median(v);
            let share = (q3 - q1) / m;
            // The set-up time's spread is reported, not judged.
            let flag = if name != "setup_s" && share > bound / 3.0 {
                "WIDE"
            } else {
                ""
            };
            wide += usize::from(!flag.is_empty());
            println!(
                "{workload:<20} {name:<20} {:>5} {m:>14.5} {:>7.2}% {:>5.0}% {flag}",
                v.len(),
                share * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(wide)
}
