//! The shape of `BENCHMARK.json` and of the result lines, and that the two
//! agree with the names the driver crate prints.

use netpack_benchmark::json::{self, Value};
use netpack_benchmark::report::{self, Metric, MetricSpec};
use std::collections::BTreeMap;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "manifest over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// Starts with a letter or digit; at most 64 of letters, digits, `_.-`.
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// At most 16 of letters, digits, `_/%.-`.
fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

/// Every entry has exactly `keys`; names and units are well formed and
/// match `specs` in order.
fn check_metric_list(list: &[Value], keys: &[&str], specs: &[MetricSpec]) {
    assert_eq!(list.len(), specs.len());
    for (entry, &(name, unit, better)) in list.iter().zip(specs) {
        assert_eq!(entry.keys(), keys, "{name}");
        assert!(valid_name(text(entry, "name")), "{name}");
        assert!(valid_unit(text(entry, "unit")), "{name}");
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "unit"), unit, "{name}");
        assert_eq!(text(entry, "better"), better, "{name}");
        assert!(matches!(better, "higher" | "lower"), "{name}");
    }
}

#[test]
fn manifest_has_the_contract_shape() {
    let m = manifest();
    assert_eq!(
        m.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = m
        .get("command")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let paths: Vec<&str> = m
        .get("paths")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = m
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = m.get("workloads").map(Value::as_arr).unwrap_or(&[]);
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, report::WORKLOADS);
    for w in workloads {
        assert_eq!(w.keys(), ["name", "why"]);
        assert!(valid_name(text(w, "name")));
        let why = text(w, "why");
        assert!(!why.is_empty() && why.chars().count() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn manifest_metrics_match_what_the_driver_prints() {
    let m = manifest();
    let end_to_end = m.get("end_to_end").map(Value::as_arr).unwrap_or(&[]);
    assert!((1..=16).contains(&end_to_end.len()));
    check_metric_list(
        end_to_end,
        &["name", "unit", "better", "bound"],
        &report::END_TO_END,
    );
    for entry in end_to_end {
        let bound = entry.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", text(entry, "name"));
    }
    let setup = end_to_end
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let largest = end_to_end
        .iter()
        .filter_map(|e| e.get("bound").and_then(Value::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Value::as_f64),
        Some(largest),
        "setup_s has the largest bound"
    );

    let per_layer = m.get("per_layer").map(Value::as_arr).unwrap_or(&[]);
    assert!((1..=128).contains(&per_layer.len()));
    check_metric_list(per_layer, &["name", "unit", "better"], &report::PER_LAYER);

    let mut all: Vec<&str> = report::WORKLOADS.to_vec();
    all.extend(
        report::END_TO_END
            .iter()
            .chain(&report::PER_LAYER)
            .map(|s| s.0),
    );
    let distinct: std::collections::BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(distinct.len(), all.len(), "a name is used twice");
}

/// The result line for `specs` with made-up values, parsed back.
fn round_trip(specs: &[MetricSpec]) -> Value {
    let values: BTreeMap<&'static str, f64> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.0, 1.5 + i as f64))
        .collect();
    let metrics: Vec<Metric> = report::metrics(specs, &values).expect("every metric present");
    json::parse(&report::result_line(true, 1_000, 0, &metrics)).expect("result line parses")
}

#[test]
fn result_lines_carry_exactly_the_listed_metrics() {
    for specs in [&report::END_TO_END[..], &report::PER_LAYER[..]] {
        let line = round_trip(specs);
        assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Value::as_f64), Some(1_000.0));
        let metrics = line.get("metrics").expect("metrics");
        let names: Vec<&str> = specs.iter().map(|s| s.0).collect();
        assert_eq!(metrics.keys(), names);
        for &(name, unit, _) in specs {
            let metric = metrics.get(name).expect(name);
            assert_eq!(metric.keys(), ["value", "unit"]);
            assert_eq!(metric.get("unit").and_then(Value::as_str), Some(unit));
            assert!(metric.get("value").and_then(Value::as_f64).is_some());
        }
    }
}

#[test]
fn a_missing_or_unlisted_metric_is_an_error() {
    let mut values: BTreeMap<&'static str, f64> =
        report::END_TO_END.iter().map(|s| (s.0, 1.0)).collect();
    values.remove("setup_s");
    assert!(report::metrics(&report::END_TO_END, &values).is_err());
    values.insert("setup_s", 1.0);
    values.insert("not_a_metric", 1.0);
    assert!(report::metrics(&report::END_TO_END, &values).is_err());
}

#[test]
fn every_workload_name_builds_a_workload() {
    for name in report::WORKLOADS {
        assert!(netpack_benchmark::workload(name, 1).is_some(), "{name}");
    }
    assert!(netpack_benchmark::workload("service_paced", 1).is_none());
}
