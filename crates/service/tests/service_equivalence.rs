//! The service's warm-state fast path must be indistinguishable from the
//! closed-batch `JobManager` + `NetPackPlacer` reference on the same
//! arrival order — same placements (workers, PSes, INA flags), same
//! deferrals, same ledger. Both sides run the same batch loop; the manager
//! side on a `(ledger, estimator)` pair rebuilt from its `Cluster` and
//! running list for every epoch, the session on the pair it keeps. This is
//! the acceptance gate for the persistent
//! [`NetPackSession`](netpack_placement::NetPackSession) state: if any
//! carried-over arena, the session's GPU ledger or the warm estimator
//! drifted from what a from-scratch rebuild computes, placements would
//! diverge here.

use netpack_core::JobManager;
use netpack_placement::NetPackPlacer;
use netpack_service::{Command, ServiceConfig, ServiceCore};
use netpack_topology::{Cluster, ClusterSpec, JobId};
use netpack_workload::{TraceKind, TraceSpec};

fn cluster() -> Cluster {
    Cluster::new(ClusterSpec {
        racks: 4,
        servers_per_rack: 8,
        gpus_per_server: 8,
        ..ClusterSpec::paper_default()
    })
}

/// Drive both engines through the same schedule: jobs arrive in trace
/// order, a placement pass runs every `batch` arrivals, and each pass is
/// followed by completing the oldest still-running job (churn keeps the
/// warm state honest). Compare placements after every pass.
fn run_equivalence(seed: u64, kind: TraceKind, jobs: usize, batch: usize) {
    let trace = TraceSpec::new(kind, jobs).seed(seed).open_loop().generate();
    let jobs = trace.jobs();

    let mut manager = JobManager::new(cluster(), Box::new(NetPackPlacer::default()));
    let mut core = ServiceCore::new(cluster(), ServiceConfig::default());

    let mut completion_order: Vec<JobId> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        manager.submit(job.clone());
        core.apply(Command::Submit(job.clone()));
        if (i + 1) % batch != 0 && i + 1 != jobs.len() {
            continue;
        }

        let placed_ref = manager.run_epoch();
        let placed_svc_before = core.counters().placed;
        core.place_pass();
        // The session's persistent server index must equal a full scan,
        // its warm steady state a from-scratch estimate, and its GPU
        // ledger a recount from the running placements, after every pass
        // (and, below, after every completion).
        assert_eq!(core.session().audit_index(), Ok(()), "pass after job {i}");
        assert_eq!(core.session().audit_state(), Ok(()), "pass after job {i}");
        assert_eq!(core.session().audit_ledger(), Ok(()), "pass after job {i}");
        let placed_svc = core.counters().placed - placed_svc_before;
        assert_eq!(
            placed_svc,
            placed_ref.len() as u64,
            "pass after job {i}: placement counts diverged"
        );
        for (job, p) in &placed_ref {
            completion_order.push(job.id);
            // The reference's committed placement must be running
            // identically in the service — workers, PSes, INA flag.
            let svc_placement = core
                .session()
                .running()
                .iter()
                .find(|r| r.id == job.id)
                .map(|r| &r.placement);
            assert_eq!(
                svc_placement,
                Some(p),
                "pass after job {i}: placement for {} diverged",
                job.id
            );
        }
        assert_eq!(
            core.free_gpus(),
            manager.cluster().free_gpus(),
            "pass after job {i}: GPU ledgers diverged"
        );
        assert_eq!(core.pending_len(), manager.pending().len());

        // Service running set must mirror the manager's, placement for
        // placement (INA flags included).
        assert_eq!(core.running_len(), manager.running().len());

        // Churn: retire the oldest running job on both sides.
        if let Some(&oldest) = completion_order.first() {
            let p_ref = manager.finish(oldest).expect("reference finish").placement;
            core.apply(Command::Complete(oldest));
            assert_eq!(core.session().audit_index(), Ok(()), "completing {oldest}");
            assert_eq!(core.session().audit_ledger(), Ok(()), "completing {oldest}");
            // The completion only staged its estimator removal; settled,
            // the state must be the survivors' from-scratch one.
            core.settle();
            assert_eq!(core.session().audit_state(), Ok(()), "completing {oldest}");
            completion_order.remove(0);
            assert_eq!(
                (core.counters().unknown_ops, core.counters().ledger_errors),
                (0, 0),
                "service lost track of {oldest} (reference had {p_ref:?})"
            );
        }
    }

    // Final drain: both sides place whatever is still queued.
    let mut guard = 0;
    while !manager.pending().is_empty() || core.pending_len() > 0 {
        let placed_ref = manager.run_epoch();
        let before = core.counters().placed;
        core.place_pass();
        assert_eq!(core.session().audit_index(), Ok(()), "drain pass {guard}");
        assert_eq!(core.session().audit_state(), Ok(()), "drain pass {guard}");
        assert_eq!(core.session().audit_ledger(), Ok(()), "drain pass {guard}");
        assert_eq!(core.counters().placed - before, placed_ref.len() as u64);
        assert_eq!(core.free_gpus(), manager.cluster().free_gpus());
        guard += 1;
        if placed_ref.is_empty() || guard > 64 {
            break; // nothing placeable without further completions
        }
    }
    assert_eq!(core.running_len(), manager.running().len());
}

#[test]
fn service_matches_job_manager_on_philly_open_loop() {
    run_equivalence(17, TraceKind::Real, 120, 8);
}

#[test]
fn service_matches_job_manager_on_poisson_small_batches() {
    run_equivalence(3, TraceKind::Poisson, 90, 3);
}

#[test]
fn service_matches_job_manager_on_normal_large_batches() {
    run_equivalence(29, TraceKind::Normal, 100, 16);
}
