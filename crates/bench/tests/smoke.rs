//! Smoke tests for the figure scaffolding: every roster placer replays a
//! quick loaded trace, and the shared helpers stay in sync.

use netpack_bench::{
    loaded_trace, named_placer, replay_cell, roster_names, roster_sweep, testbed_spec,
};
use netpack_flowsim::SimConfig;
use netpack_metrics::Summary;
use netpack_workload::TraceKind;

#[test]
fn replay_produces_finite_summaries_for_every_roster_placer() {
    let spec = testbed_spec();
    let rows = roster_sweep(&[TraceKind::Real], 2, 1000, |&kind, name, seed| {
        let result = replay_cell(&spec, kind, 20, seed, named_placer(name), SimConfig::default());
        (
            result.average_jct_s().expect("jobs finished"),
            result.distribution_efficiency().expect("jobs finished"),
        )
    });
    for (name, reps) in roster_names().into_iter().zip(&rows[0]) {
        let jct = Summary::of(&reps.iter().map(|r| r.0).collect::<Vec<_>>());
        let de = Summary::of(&reps.iter().map(|r| r.1).collect::<Vec<_>>());
        assert!(jct.mean.is_finite() && jct.mean > 0.0, "{name}");
        assert!(de.mean > 0.0 && de.mean <= 1.0, "{name}");
        assert_eq!(jct.n, 2, "{name}");
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
        let placer = named_placer("NetPack");
        let result = replay_cell(&spec, kind, 30, 77, placer, SimConfig::default());
        assert_eq!(result.outcomes.len(), 30, "{kind}");
    }
}
