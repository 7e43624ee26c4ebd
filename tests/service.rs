//! Tier-1 sees the service: `cargo test -q` runs only this root package,
//! so the placement service's books are held here — a duplicate `Submit`
//! is refused at the boundary, and under a seeded stream of well-formed
//! and hostile commands, at queue caps of 16, 1 and 0, the session's
//! ledger, warm steady state and server index stay equal to their
//! from-scratch rebuilds and the counters keep their accounting
//! identities after every pass.

use netpack::prelude::*;
use netpack::service::{Command, JobStatus, ServiceConfig, ServiceCore};

/// 2 racks x 4 servers x 4 GPUs = 32 GPUs.
fn core(queue_cap: usize) -> ServiceCore {
    let cluster = Cluster::new(ClusterSpec {
        racks: 2,
        servers_per_rack: 4,
        gpus_per_server: 4,
        ..ClusterSpec::paper_default()
    });
    let config = ServiceConfig {
        queue_cap,
        event_log: true,
        ..ServiceConfig::default()
    };
    ServiceCore::new(cluster, config)
}

fn job(id: u64, gpus: usize) -> Job {
    Job::builder(JobId(id), ModelKind::Vgg16, gpus).build()
}

fn held_gpus(core: &ServiceCore) -> usize {
    core.session()
        .running()
        .iter()
        .flat_map(|r| r.placement.workers())
        .map(|&(_, gpus)| gpus)
        .sum()
}

/// Everything that must hold between two passes, whatever came before.
fn assert_books_balance(core: &ServiceCore, context: &str) {
    let session = core.session();
    assert_eq!(session.audit_ledger(), Ok(()), "{context}");
    assert_eq!(session.audit_state(), Ok(()), "{context}");
    assert_eq!(session.audit_index(), Ok(()), "{context}");
    assert_eq!(held_gpus(core) + core.free_gpus(), 32, "{context}");
    let c = core.counters();
    assert_eq!(
        c.submitted,
        c.placed + c.cancelled_pending + c.completed_pending + core.pending_len() as u64,
        "{context}: every accepted job is placed, retired unplaced, or pending"
    );
    assert_eq!(
        c.placed,
        core.running_len() as u64 + c.completed + c.cancelled_running,
        "{context}: every placed job is running or retired"
    );
    assert_eq!(c.ledger_errors, 0, "{context}");
}

#[test]
fn a_duplicate_submit_is_refused_while_the_id_is_pending_or_running() {
    let mut core = core(16);
    core.apply(Command::Submit(job(7, 6)));
    core.apply(Command::Submit(job(7, 6))); // 7 is pending
    assert_eq!(core.pending_len(), 1);
    assert_eq!(core.place_pass(), 1);
    core.apply(Command::Submit(job(7, 6))); // 7 is running
    assert_eq!(core.pending_len(), 0);
    assert_eq!(core.place_pass(), 0);
    assert_eq!((core.running_len(), core.free_gpus()), (1, 26));
    assert_books_balance(&core, "one copy of job 7 placed");

    core.apply(Command::Complete(JobId(7)));
    core.apply(Command::Complete(JobId(7)));
    assert_eq!(core.place_pass(), 0);
    assert_eq!((core.running_len(), core.free_gpus()), (0, 32));
    assert_eq!(core.status(JobId(7)), JobStatus::Unknown);
    assert_books_balance(&core, "job 7 completed");
    let c = *core.counters();
    assert_eq!((c.submitted, c.rejected, c.placed), (1, 2, 1));
    assert_eq!((c.completed, c.unknown_ops), (1, 1));
    let rejects: Vec<&String> = core.events().iter().filter(|e| e.starts_with("reject")).collect();
    assert_eq!(rejects, ["reject id=j7 kind=duplicate", "reject id=j7 kind=duplicate"]);

    // A retired id is free again.
    core.apply(Command::Submit(job(7, 4)));
    assert_eq!(core.place_pass(), 1);
    assert_books_balance(&core, "job 7 resubmitted after completing");
}

/// Run a seeded stream of 20 000 well-formed and hostile commands through
/// a core whose queue holds `queue_cap` jobs, holding the books after
/// every pass, and return the core after a final one.
fn hostile_stream(seed: u64, queue_cap: usize) -> ServiceCore {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut core = core(queue_cap);
    // Forty slots, each naming one id at a time; slot s only ever uses
    // ids congruent to s, so no two slots collide.
    let mut ids: Vec<u64> = (0..40).collect();
    for step in 0..20_000 {
        let r = next();
        let slot = (next() % 40) as usize;
        // One target in eight is an id nobody ever submitted.
        let target = JobId(if next() % 8 == 0 { ids[slot] | 1 << 40 } else { ids[slot] });
        match r % 100 {
            0..=39 => {
                // A slot whose job is gone usually moves on to a fresh
                // id and sometimes reuses the retired one; a slot whose
                // job is live resubmits it as it is — a duplicate.
                if core.status(JobId(ids[slot])) == JobStatus::Unknown && next() % 4 != 0 {
                    ids[slot] += 40;
                }
                let mut submit = job(ids[slot], 1 + (r >> 32) as usize % 12);
                // One submit in sixteen each carries a value FindSubset
                // cannot weigh, asks for no GPU, or asks for more GPUs
                // than the cluster holds.
                match next() % 16 {
                    0 => {
                        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0];
                        submit.value = values[(next() % 5) as usize];
                    }
                    1 => submit.gpus = 0,
                    2 => submit.gpus = 33 + (next() % 8) as usize,
                    _ => {}
                }
                core.apply(Command::Submit(submit));
            }
            40..=64 => core.apply(Command::Complete(target)),
            65..=79 => core.apply(Command::Cancel(target)),
            80..=89 => core.apply(Command::Query(target, None)),
            _ => {
                let _ = core.place_pass();
                assert_books_balance(&core, &format!("cap {queue_cap} seed {seed} step {step}"));
            }
        }
    }
    let _ = core.place_pass();
    assert_books_balance(&core, &format!("cap {queue_cap} seed {seed} final pass"));
    core
}

#[test]
fn the_books_balance_after_every_pass_of_a_hostile_command_stream() {
    for seed in [1u64, 2, 3] {
        let core = hostile_stream(seed, 16);
        // The stream reached every corner it was written to reach.
        let c = *core.counters();
        let duplicates = core.events().iter().filter(|e| e.ends_with("kind=duplicate")).count();
        assert!(duplicates > 0 && (duplicates as u64) < c.rejected, "seed {seed}: {c:?}");
        for kind in ["kind=bad-value", "kind=no-gpus"] {
            assert!(
                core.events().iter().any(|e| e.ends_with(kind)),
                "seed {seed}: no {kind} reject"
            );
        }
        let oversize = core
            .events()
            .iter()
            .filter_map(|e| e.strip_prefix("submit "))
            .filter_map(|e| e.split(' ').find_map(|f| f.strip_prefix("gpus=")))
            .any(|gpus| gpus.parse::<usize>().is_ok_and(|gpus| gpus > 32));
        assert!(oversize, "seed {seed}: no oversize job was accepted");
        for (name, count) in [
            ("deferrals", c.deferrals),
            ("cancelled_pending", c.cancelled_pending),
            ("cancelled_running", c.cancelled_running),
            ("completed", c.completed),
            ("completed_pending", c.completed_pending),
            ("unknown_ops", c.unknown_ops),
        ] {
            assert!(count > 0, "seed {seed}: {name} never happened: {c:?}");
        }

        // No room at all: nothing is accepted, and every well-formed
        // submit is refused for the queue.
        let core = hostile_stream(seed, 0);
        assert_eq!(core.counters().submitted, 0, "seed {seed}");
        for reject in core.events().iter().filter(|e| e.starts_with("reject ")) {
            assert!(
                reject.ends_with("kind=no-gpus")
                    || reject.ends_with("kind=bad-value")
                    || reject.ends_with("queue=0"),
                "seed {seed}: {reject}"
            );
        }

        // Room for one: a second job waiting is refused.
        let core = hostile_stream(seed, 1);
        assert!(
            core.events().iter().any(|e| e.starts_with("reject ") && e.ends_with("queue=1")),
            "seed {seed}: no queue=1 reject"
        );
    }
}
