//! Smoke tests for the figure scaffolding: every roster placer replays a
//! quick loaded trace, and the shared helpers stay in sync. Two oracle
//! checks live here because they need the crate's trace recipes: the
//! Fig. 9 cell against the flow simulator's from-scratch reference, and
//! `bench_service`'s replay against itself. `scripts/check.sh` runs them
//! from a debug and from a release build; their pinned values hold in
//! both.

use netpack_bench::{
    loaded_trace, named_placer, parallel_sweep, replay, replay_cell, roster_names, roster_sweep,
    service_trace, testbed_spec,
};
use netpack_flowsim::{SimConfig, Simulation};
use netpack_metrics::Summary;
use netpack_service::ServiceConfig;
use netpack_topology::{Cluster, ClusterSpec};
use netpack_workload::TraceKind;

#[test]
fn replay_produces_finite_summaries_for_every_roster_placer() {
    let spec = testbed_spec();
    let rows = roster_sweep(&[TraceKind::Real], 2, 1000, |&kind, name, seed| {
        let result = replay_cell(
            &spec,
            kind,
            20,
            seed,
            named_placer(name),
            SimConfig::default(),
        );
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
        assert!(trace.jobs().iter().all(|j| j.gpus <= spec.total_gpus()));
        // And the same trace must actually finish when replayed.
        let placer = named_placer("NetPack");
        let result = replay_cell(&spec, kind, 30, 77, placer, SimConfig::default());
        assert_eq!(result.outcomes.len(), 30, "{kind}");
    }
}

/// The Fig. 9 cell — 256 servers, a 400-job loaded Real trace, seed 3000,
/// loaded enough that completions, epochs and INA reconciliation meet in
/// one warm session — under every roster placer: production
/// (`Simulation::run`) equals the from-scratch oracle (`run_reference`),
/// and each placer's average JCT keeps its bits. A debug build also
/// re-checks every running job's iteration time after each selective
/// re-rate, and audits the warm session on every pass.
#[test]
fn fig9_cell_matches_the_from_scratch_reference() {
    let spec = ClusterSpec {
        racks: 16,
        servers_per_rack: 16,
        ..ClusterSpec::paper_default()
    };
    let trace = loaded_trace(TraceKind::Real, &spec, 400, 3000);
    let jct_bits = parallel_sweep(&roster_names(), |&name| {
        let sim = || {
            Simulation::new(
                Cluster::new(spec.clone()),
                named_placer(name),
                SimConfig::default(),
            )
        };
        let result = sim().run(&trace);
        assert_eq!(result, sim().run_reference(&trace), "{name}");
        assert_eq!(result.perf.counter("wf_unconverged"), 0, "{name}");
        let jct = result.average_jct_s().expect("jobs finished");
        (name, jct.to_bits())
    });
    let pinned = [
        ("NetPack", 0x4077_e90a_d579_743b),
        ("GB", 0x407b_acfc_692c_e0ca),
        ("FB", 0x407b_a057_5518_0317),
        ("LF", 0x407d_2874_f759_4dd1),
        ("Optimus", 0x407b_786a_1dd8_1f33),
        ("Tetris", 0x407d_6871_913b_9fda),
    ];
    assert_eq!(jct_bits, pinned);
}

/// `bench_service`'s schedule, replayed twice with the event log on:
/// the schedule depends on the trace alone, so the two replays log the
/// same events and count the same, and the counts are pinned. A debug
/// build replays 2 000 jobs with every session audit on after every pass;
/// a release build replays 10 000.
#[test]
fn service_replay_is_reproducible() {
    let spec = ClusterSpec::paper_default();
    let jobs = if cfg!(debug_assertions) {
        2_000
    } else {
        10_000
    };
    let trace = service_trace(&spec, jobs, 1);
    let config = ServiceConfig {
        event_log: true,
        ..ServiceConfig::default()
    };
    let (a, _) = replay(&spec, &trace, config.clone());
    let (b, _) = replay(&spec, &trace, config);
    assert_eq!(a.events, b.events);
    assert_eq!(a.counters, b.counters);
    assert!(!a.events.is_empty());
    let c = &a.counters;
    let counts = [
        c.submitted,
        c.placed,
        c.deferrals,
        c.rejected,
        c.completed,
        c.completed_pending,
        c.batches,
        c.max_queue_depth,
    ];
    let pinned = if cfg!(debug_assertions) {
        [2_000, 1_340, 0, 0, 1_340, 660, 15, 112]
    } else {
        [10_000, 6_965, 3, 0, 6_965, 3_035, 78, 112]
    };
    assert_eq!(counts, pinned, "[submitted, placed, deferrals, rejected, completed, completed pending, batches, max queue depth]");
    assert_eq!((a.running_left, a.pending_left), (0, 0));
}
