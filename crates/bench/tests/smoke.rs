//! Smoke tests for the figure scaffolding: every roster placer replays a
//! quick loaded trace, and the shared helpers stay in sync.

use netpack_bench::{loaded_trace, replay, replay_cell, roster_names, testbed_spec};
use netpack_workload::TraceKind;

#[test]
fn replay_produces_finite_summaries_for_every_roster_placer() {
    std::env::set_var("NETPACK_REPEATS", "2");
    let spec = testbed_spec();
    for name in roster_names() {
        let point = replay(name, &spec, TraceKind::Real, 20);
        assert!(point.jct.mean.is_finite() && point.jct.mean > 0.0, "{name}");
        assert!(point.de.mean > 0.0 && point.de.mean <= 1.0, "{name}");
        assert_eq!(point.jct.n, 2, "{name}");
    }
}

#[test]
fn loaded_traces_saturate_without_overflowing() {
    let spec = testbed_spec();
    for kind in TraceKind::ALL {
        let trace = loaded_trace(kind, &spec, 30, 77);
        assert_eq!(trace.jobs().len(), 30, "{kind}");
        // Demand clamp keeps every job placeable.
        assert!(trace
            .jobs()
            .iter()
            .all(|j| j.gpus <= spec.total_gpus()));
        // And the same trace must actually finish when replayed.
        let result = replay_cell("NetPack", &spec, kind, 30, 77);
        assert_eq!(result.outcomes.len(), 30, "{kind}");
    }
}
