//! Property suite pinning the branch-and-bound exact placer to the
//! exhaustive reference search (`reference::place_exact`): on 2 003 seeded
//! random instances both must return the *identical* batch outcome (same
//! placements in the same order, bit-identical objective), with the B&B
//! doing no more leaf evaluations than the reference. A debug build also
//! asserts, at every leaf, that no job's comm time undercuts its solo comm
//! time, the premise of the search's bound.

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

/// Draw a small random instance: 1-3 racks of 1-3 servers, 1-2 GPUs per
/// server, PAT absent, scarce (25-150 Gbps) or plentiful (1 000 Gbps),
/// uplinks oversubscribed 1:1 to 4:1, a few pre-allocated GPUs (mixed
/// free capacities), 0-2 running jobs on two servers each (cross-rack
/// whenever the draw lands so, INA on or off, PS anywhere), and a 1-3 job
/// batch whose demands may be infeasible. Shapes are capped so the
/// reference fully enumerates well inside its evaluation budget.
fn instance(seed: u64) -> Instance {
    let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let racks = 1 + rng.below(3) as usize;
    let servers_per_rack = 1 + rng.below(if racks == 3 { 2 } else { 3 }) as usize;
    let total_servers = racks * servers_per_rack;
    let gpus_per_server = 1 + rng.below(2) as usize;
    let pat_gbps = [0.0, 25.0, 60.0, 100.0, 150.0, 1000.0][rng.below(6) as usize];
    let oversubscription = [1.0, 1.0, 2.0, 4.0][rng.below(4) as usize];
    let mut cluster = Cluster::new(ClusterSpec {
        racks,
        servers_per_rack,
        gpus_per_server,
        pat_gbps,
        oversubscription,
        ..ClusterSpec::paper_default()
    });

    // Mixed caps: occupy one GPU on some servers before anyone plans.
    for s in 0..total_servers {
        if gpus_per_server > 1 && rng.below(4) == 0 {
            cluster.allocate_gpus(ServerId(s), 1).unwrap();
        }
    }

    // Running jobs: span two servers with free GPUs, PS wherever the draw
    // lands — their GPUs come out of the ledger, their traffic shapes
    // every water-filling the search performs.
    let mut running = Vec::new();
    for k in 0..rng.below(3) {
        let with_free: Vec<ServerId> = cluster
            .servers()
            .filter(|s| s.gpus_free() > 0)
            .map(|s| s.id())
            .collect();
        // Leave the batch at least two GPUs.
        let free = cluster.free_gpus();
        if with_free.len() < 2 || free < 4 {
            break;
        }
        let a = rng.below(with_free.len() as u64) as usize;
        let b = (a + 1 + rng.below(with_free.len() as u64 - 1) as usize) % with_free.len();
        let (a, b) = (with_free[a], with_free[b]);
        cluster.allocate_gpus(a, 1).unwrap();
        cluster.allocate_gpus(b, 1).unwrap();
        let ps = ServerId(rng.below(total_servers as u64) as usize);
        let mut placement = Placement::new(vec![(a, 1), (b, 1)], Some(ps));
        placement.set_ina_enabled(rng.below(2) == 1);
        running.push(RunningJob {
            id: JobId(100 + k),
            gradient_gbits: 2.0 + rng.below(8) as f64,
            placement,
        });
    }

    let kinds = [ModelKind::Vgg16, ModelKind::ResNet50, ModelKind::AlexNet];
    let free_gpus = cluster.free_gpus();
    // Demands fit the free GPU count, or overrun it by one now and then
    // (the whole batch defers); larger clusters take fewer, smaller jobs.
    let mut jobs = 1 + rng.below(3) as usize;
    if total_servers >= 5 || free_gpus >= 8 {
        jobs = jobs.min(2);
    }
    let max_gpus = if free_gpus >= 8 { 2 } else { 3 };
    let mut left = free_gpus + usize::from(rng.below(8) == 0);
    jobs = jobs.min(left.max(1));
    let batch: Vec<Job> = (0..jobs)
        .map(|i| {
            let kind = kinds[rng.below(3) as usize];
            let cap = left.saturating_sub(jobs - 1 - i).clamp(1, max_gpus);
            let gpus = 1 + rng.below(cap as u64) as usize;
            left = left.saturating_sub(gpus);
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

/// What the suite must have drawn: the corners where the committed jobs'
/// objective stopped being a floor.
#[derive(Debug, Default)]
struct Reached {
    infeasible: usize,
    three_racks: usize,
    scarce_pat: usize,
    oversubscribed: usize,
    cross_rack_running: usize,
}

#[test]
fn bnb_matches_scratch_on_random_instances() {
    const INSTANCES: u64 = 2_000;
    // Of the first 20 000 seeds, the three on which a bound built from the
    // committed jobs' current objective pruned the optimum.
    const PRUNED_THE_OPTIMUM: [u64; 3] = [4_807, 7_656, 12_607];
    let budget = 2_000_000;
    let mut reached = Reached::default();
    for seed in (1..=INSTANCES).chain(PRUNED_THE_OPTIMUM) {
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

        let spec = inst.cluster.spec();
        reached.infeasible += usize::from(!ref_deferred.is_empty());
        reached.three_racks += usize::from(spec.racks == 3);
        reached.scarce_pat += usize::from(spec.pat_gbps <= 150.0);
        reached.oversubscribed += usize::from(spec.oversubscription > 1.0);
        reached.cross_rack_running += usize::from(inst.running.iter().any(|r| {
            let rack = |s: ServerId| inst.cluster.rack_of(s);
            let workers = r.placement.workers();
            workers.iter().any(|&(s, _)| rack(s) != rack(workers[0].0))
        }));
    }
    // The generator must reach every corner, and both outcomes.
    let n = INSTANCES as usize + PRUNED_THE_OPTIMUM.len();
    for (corner, count) in [
        ("infeasible", reached.infeasible),
        ("three racks", reached.three_racks),
        ("scarce PAT", reached.scarce_pat),
        ("oversubscribed", reached.oversubscribed),
        ("cross-rack running job", reached.cross_rack_running),
    ] {
        assert!(count > 0 && count < n, "{corner}: {count} of {n} instances");
    }
    println!("{reached:?} of {n} instances");
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

/// The instance on which a bound built from the committed jobs' current
/// objective pruned the optimum: on scarce PAT, with a cross-rack running
/// job, the leaf that places all three jobs costs less than a partial
/// assignment on its path, so a partial objective is no floor. Found by a
/// fully enumerated probe over three-rack instances.
#[test]
fn a_later_job_that_speeds_up_an_earlier_one_keeps_the_optimum() {
    let mut cluster = Cluster::new(ClusterSpec {
        racks: 3,
        servers_per_rack: 2,
        gpus_per_server: 2,
        pat_gbps: 60.0,
        oversubscription: 1.0,
        ..ClusterSpec::paper_default()
    });
    cluster.allocate_gpus(ServerId(1), 1).unwrap();
    cluster.allocate_gpus(ServerId(5), 1).unwrap();
    let running = [RunningJob {
        id: JobId(100),
        gradient_gbits: 9.0,
        placement: Placement::new(vec![(ServerId(1), 1), (ServerId(5), 1)], Some(ServerId(4))),
    }];
    let batch = [
        Job::builder(JobId(0), ModelKind::Vgg16, 3).build(),
        Job::builder(JobId(1), ModelKind::ResNet50, 1).build(),
        Job::builder(JobId(2), ModelKind::ResNet50, 3).build(),
    ];
    let budget = 2_000_000;
    let (best, ref_evaluations) = reference::place_exact(&cluster, &running, &batch, false, budget);
    assert!(ref_evaluations < budget);
    let (ref_obj, ref_placed) = best.expect("the instance is feasible");
    let mut bnb = ExactPlacer::new(budget);
    let out = bnb.place_batch(&cluster, &running, &batch);
    let obj = batch_comm_time_s(&cluster, &running, &out.placed);
    assert_eq!(
        obj.to_bits(),
        ref_obj.to_bits(),
        "bnb {obj} against the exhaustive optimum {ref_obj}"
    );
    assert_eq!(out.placed, ref_placed);
}
