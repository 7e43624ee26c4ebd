//! Property suite pinning the branch-and-bound exact placer to the
//! exhaustive reference search (`reference::place_exact`): on seeded
//! random instances both must return the *identical* batch outcome (same
//! placements in the same order, bit-identical objective), with the B&B
//! doing no more leaf evaluations than the reference.

use netpack_model::Placement;
use netpack_placement::{batch_comm_time_s, reference, ExactPlacer, Placer, RunningJob};
use netpack_topology::{Cluster, ClusterSpec, JobId, ServerId};
use netpack_workload::{Job, ModelKind};

/// xorshift64 — deterministic, dependency-free instance generator.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Instance {
    cluster: Cluster,
    running: Vec<RunningJob>,
    batch: Vec<Job>,
    enumerate_ina: bool,
}

/// Draw a small random instance: 2-4 servers over 1-2 racks, 1-2 GPUs per
/// server, a few pre-allocated GPUs (mixed free capacities), 0-2 running
/// jobs pinning servers, and a 1-3 job batch whose demands may be
/// infeasible. Shapes are capped so the reference fully enumerates
/// well inside its evaluation budget.
fn instance(seed: u64) -> Instance {
    let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let (racks, servers_per_rack) = match rng.below(6) {
        0 => (1, 2),
        1 | 2 => (1, 3),
        3 => (2, 1),
        4 => (2, 2),
        _ => (1, 4),
    };
    let total_servers = racks * servers_per_rack;
    let gpus_per_server = 1 + rng.below(2) as usize;
    let mut cluster = Cluster::new(ClusterSpec {
        racks,
        servers_per_rack,
        gpus_per_server,
        ..ClusterSpec::paper_default()
    });

    // Mixed caps: occupy one GPU on some servers before anyone plans.
    for s in 0..total_servers {
        if gpus_per_server > 1 && rng.below(4) == 0 {
            cluster.allocate_gpus(ServerId(s), 1).unwrap();
        }
    }

    // Running jobs: span two servers with free GPUs, PS on a third (or
    // wherever the draw lands) — their GPUs come out of the ledger, their
    // traffic shapes every water-filling the search performs.
    let mut running = Vec::new();
    for k in 0..rng.below(3) {
        let with_free: Vec<ServerId> = cluster
            .servers()
            .iter()
            .filter(|s| s.gpus_free() > 0)
            .map(|s| s.id())
            .collect();
        if with_free.len() < 2 {
            break;
        }
        let a = with_free[rng.below(with_free.len() as u64) as usize];
        let b = with_free.iter().copied().find(|&s| s != a).unwrap();
        cluster.allocate_gpus(a, 1).unwrap();
        cluster.allocate_gpus(b, 1).unwrap();
        let ps = ServerId(rng.below(total_servers as u64) as usize);
        running.push(RunningJob {
            id: JobId(100 + k),
            gradient_gbits: 2.0 + k as f64,
            placement: Placement::new(vec![(a, 1), (b, 1)], Some(ps)),
        });
    }

    let kinds = [ModelKind::Vgg16, ModelKind::ResNet50, ModelKind::AlexNet];
    let mut jobs = 1 + rng.below(3) as usize;
    if total_servers >= 4 {
        jobs = jobs.min(2);
    }
    let batch: Vec<Job> = (0..jobs)
        .map(|i| {
            let kind = kinds[rng.below(3) as usize];
            let gpus = 1 + rng.below(3) as usize;
            Job::builder(JobId(i as u64), kind, gpus).build()
        })
        .collect();

    Instance {
        cluster,
        running,
        batch,
        enumerate_ina: rng.below(2) == 1,
    }
}

#[test]
fn bnb_matches_scratch_on_random_instances() {
    let budget = 2_000_000;
    let mut infeasible = 0;
    for seed in 1..=200u64 {
        let inst = instance(seed);

        let (ref_best, ref_evaluations) = reference::place_exact(
            &inst.cluster,
            &inst.running,
            &inst.batch,
            inst.enumerate_ina,
            budget,
        );
        assert!(
            ref_evaluations < budget,
            "seed {seed}: the reference must fully enumerate for the comparison"
        );
        // No complete assignment means the whole batch is deferred.
        let (ref_placed, ref_deferred) = match ref_best {
            Some((_, placed)) => (placed, Vec::new()),
            None => (Vec::new(), inst.batch.clone()),
        };

        let mut bnb = ExactPlacer::new(budget).enumerate_ina(inst.enumerate_ina);
        let out = bnb.place_batch(&inst.cluster, &inst.running, &inst.batch);

        assert_eq!(out.placed, ref_placed, "seed {seed}: placements differ");
        assert_eq!(out.deferred, ref_deferred, "seed {seed}: deferrals differ");
        let obj = batch_comm_time_s(&inst.cluster, &inst.running, &out.placed);
        let ref_obj = batch_comm_time_s(&inst.cluster, &inst.running, &ref_placed);
        assert_eq!(
            obj.to_bits(),
            ref_obj.to_bits(),
            "seed {seed}: objective not bit-identical ({obj} vs {ref_obj})"
        );
        assert!(
            bnb.evaluations() <= ref_evaluations,
            "seed {seed}: bnb evaluated {} leaves, the reference only {ref_evaluations}",
            bnb.evaluations(),
        );
        if !ref_deferred.is_empty() {
            infeasible += 1;
        }
    }
    // The generator must exercise both outcomes, not just the easy one.
    assert!(infeasible > 0, "no infeasible instances were generated");
    assert!(infeasible < 200, "every instance was infeasible");
}

/// A capped search stops at the same leaf on every call: one thread and
/// one incumbent leave nothing to thread timing. The `8x2 / 3+3+3` row of
/// `table_mip_vs_dp`, capped far below the ~25K leaves its full search
/// evaluates.
#[test]
fn a_capped_search_returns_the_same_incumbent_every_time() {
    let cluster = Cluster::new(ClusterSpec {
        racks: 1,
        servers_per_rack: 8,
        gpus_per_server: 2,
        pat_gbps: 50.0,
        ..ClusterSpec::paper_default()
    });
    let batch: Vec<Job> = (0..3)
        .map(|i| Job::builder(JobId(i), ModelKind::Vgg16, 3).build())
        .collect();
    let search = || {
        let mut p = ExactPlacer::new(2_000);
        let out = p.place_batch(&cluster, &[], &batch);
        (out.placed, p.evaluations(), p.perf().counter("exact_nodes"))
    };
    let first = search();
    for call in 1..20 {
        assert_eq!(search(), first, "call {call} differs from the first");
    }
}

#[test]
fn exhausted_budget_returns_the_best_incumbent() {
    let cluster = Cluster::new(ClusterSpec {
        racks: 1,
        servers_per_rack: 4,
        gpus_per_server: 2,
        ..ClusterSpec::paper_default()
    });
    let batch: Vec<Job> = (0..3)
        .map(|i| Job::builder(JobId(i), ModelKind::Vgg16, 2).build())
        .collect();

    // Reference optimum with an unconstrained budget.
    let (full, _) = reference::place_exact(&cluster, &[], &batch, false, 50_000_000);
    let (optimum, _) = full.expect("the instance is feasible");

    let mut p = ExactPlacer::new(40);
    let out = p.place_batch(&cluster, &[], &batch);
    let (capped, capped_evaluations) = reference::place_exact(&cluster, &[], &batch, false, 40);
    let capped = capped.map(|(_, placed)| placed).unwrap_or_default();
    for (search, placed, evaluations) in [
        ("bnb", out.placed, p.evaluations()),
        ("reference", capped, capped_evaluations),
    ] {
        assert!(
            evaluations <= 40,
            "{search} exceeded its evaluation budget: {evaluations}"
        );
        assert_eq!(
            placed.len(),
            batch.len(),
            "{search} must return its best complete incumbent, not give up"
        );
        let obj = batch_comm_time_s(&cluster, &[], &placed);
        assert!(
            obj >= optimum,
            "{search} incumbent {obj} beats the true optimum {optimum}"
        );
        assert!(obj.is_finite(), "{search} incumbent must be a real plan");
    }
}
