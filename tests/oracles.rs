//! Tier-1 sees the oracles: `cargo test -q` runs only this root package,
//! so each layer's production ≡ reference contract (whose full property
//! suites run under `scripts/check.sh`) is held here on fixed inputs,
//! which `check.sh` runs from a debug build (every `debug_assert!` audit
//! on) and from a release build. Every reference is reached by calling
//! it; no configuration or environment variable selects one.
//!
//! - The NetPack placer against the literal Algorithm 2: the four Fig. 10
//!   quick cells, one ragged three-tier fat-tree, one dense cell (2 racks
//!   x 64 servers, 60 jobs around a running cross-rack job) where many
//!   servers per rack share a PS class with the plan's own, the
//!   160-server three-tier tree of `fig10_xl`'s family, where most pushes
//!   are absorbed without a solve, and a contended 16 x 64 cell, placed
//!   again on 400 Gbps pools, which run dry. The last three pin the
//!   objective's bits and the counts that show their mechanism did work.
//! - The flow simulator against its from-scratch reference: one trace
//!   under NetPack (one warm session as the manager's books) and under GB
//!   (stateless books and a warm estimator), equal results and equal
//!   event and heap counts from fewer re-rate visits. The bench crate's
//!   `smoke` test replays the Fig. 9 cell under every roster placer.
//! - The packet simulator's one loop on every Fig. 14 cell, its counts
//!   and goodput bits pinned.
//! - The exact placer against the exhaustive search: one
//!   `table_mip_vs_dp` row, with the branch-and-bound's work pinned.
//!
//! Algorithm 1's solver is held to its literal twin inside
//! `netpack-waterfill`; what tier-1 pins here is that a change of its
//! round mechanism moves no count of rounds, solves or jobs re-solved on
//! the Fig. 10 dense cell, and a change of the estimator's invalidation
//! rule or of Algorithm 2's mechanisms no count of solves, plans, PS
//! evaluations, DP candidates or index journal entries unless the test
//! says why.

use netpack::metrics::PerfCounters;
use netpack::placement::{batch_comm_time_s, reference, ExactPlacer, RunningJob};
use netpack::prelude::*;
use netpack::workload::xorshift_batch;

/// Place `batch` with the production placer and with the literal
/// algorithm and assert the two agree: placements, deferred ids and the
/// objective's bits. Every solve must have converged and the per-rack
/// class dedup must have done work. Returns the objective's bits and
/// production's perf counters.
fn matches_the_literal_algorithm(
    cluster: &Cluster,
    running: &[RunningJob],
    batch: &[Job],
) -> (u64, PerfCounters) {
    let cell = format!("servers={}/jobs={}", cluster.num_servers(), batch.len());
    let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
    let oracle = reference::place_batch(&NetPackConfig::default(), cluster, running, batch);
    let oracle_obj = batch_comm_time_s(cluster, running, &oracle.placed);
    let mut placer = NetPackPlacer::default();
    let out = placer.place_batch(cluster, running, batch);
    assert_eq!(out.placed, oracle.placed, "{cell}");
    assert_eq!(ids(&out.deferred), ids(&oracle.deferred), "{cell}");
    let obj = batch_comm_time_s(cluster, running, &out.placed);
    assert_eq!(obj.to_bits(), oracle_obj.to_bits(), "{cell}");
    let perf = placer.take_perf();
    assert_eq!(perf.counter("waterfill_unconverged"), 0, "{cell}");
    assert!(perf.counter("ps_rack_servers_skipped") > 0, "{cell}");
    (obj.to_bits(), perf)
}

#[test]
fn production_matches_the_literal_algorithm() {
    for servers in [100usize, 400] {
        for jobs in [50usize, 100] {
            let cluster = Cluster::new(ClusterSpec {
                racks: 16,
                servers_per_rack: servers / 16,
                ..ClusterSpec::paper_default()
            });
            matches_the_literal_algorithm(&cluster, &[], &xorshift_batch(jobs, 32, 7));
        }
    }
    // Seven racks in pods of three: the last pod is ragged.
    let ragged = Cluster::new(ClusterSpec {
        racks: 7,
        servers_per_rack: 5,
        gpus_per_server: 4,
        racks_per_pod: Some(3),
        ..ClusterSpec::paper_default()
    });
    matches_the_literal_algorithm(&ragged, &[], &xorshift_batch(40, 32, 7));
    let mut dense = Cluster::new(ClusterSpec {
        racks: 2,
        servers_per_rack: 64,
        oversubscription: 16.0,
        ..ClusterSpec::paper_default()
    });
    let running = RunningJob {
        id: JobId(1_000),
        gradient_gbits: 4.0,
        placement: Placement::new(vec![(ServerId(3), 2), (ServerId(70), 2)], Some(ServerId(5))),
    };
    for &(s, w) in running.placement.workers() {
        dense.allocate_gpus(s, w).unwrap();
    }
    matches_the_literal_algorithm(&dense, &[running], &xorshift_batch(60, 32, 7));

    // `fig10_xl`'s tree at 160 servers (4 pods x 5 racks x 8 servers):
    // 22 of its 30 pushes are absorbed into a one-round component without
    // a solve, and journal only the pushed job's links, so a debug build
    // audits the index after each of those shorter journals.
    let xl = Cluster::new(ClusterSpec {
        racks: 4 * 5,
        servers_per_rack: 8,
        gpus_per_server: 4,
        racks_per_pod: Some(5),
        ..ClusterSpec::paper_default()
    });
    let (objective, perf) = matches_the_literal_algorithm(&xl, &[], &xorshift_batch(30, 32, 7));
    assert_eq!(objective, 0x4006_f21f_6cac_d185);
    assert_eq!(perf.counter("waterfill_warm_pushes"), 22);

    // Many servers per rack and many contending jobs: the per-rack
    // PS-class representatives and the live-link water-fill rounds are the
    // bill here. The PS-scoring counts — evaluations, the plan-rack
    // servers those stood in for, plans ruled out by their score ceiling —
    // are pinned, and so are the index classes renamed in place and the
    // class runs a rack whose uplink flows moved took elsewhere. Moving a
    // rack's classes a run at a time, after the update, took the renames
    // from 16 to 22: a class lying in one such rack is renamed whole even
    // when some of its servers also moved on their own.
    let contended = Cluster::new(ClusterSpec {
        racks: 16,
        servers_per_rack: 64,
        ..ClusterSpec::paper_default()
    });
    let batch = xorshift_batch(200, 32, 7);
    let (objective, perf) = matches_the_literal_algorithm(&contended, &[], &batch);
    assert_eq!(objective, 0x4035_4ff8_65d7_cb29);
    let ps = [
        "ps_candidates_scored",
        "ps_rack_servers_skipped",
        "ps_plans_ruled_out",
    ];
    assert_eq!(ps.map(|name| perf.counter(name)), [13_027, 18_057, 1_161]);
    assert_eq!(perf.counter("index_renamed"), 22);
    assert_eq!(perf.counter("index_slices"), 121);
    // No pool runs dry there; at 400 Gbps of PAT a rack they do, and the
    // refinable classes split at the PAT flips.
    let starved = Cluster::new(ClusterSpec {
        pat_gbps: 400.0,
        ..contended.spec().clone()
    });
    let (_, perf) = matches_the_literal_algorithm(&starved, &[], &batch);
    assert_eq!(perf.counter("waterfill_class_splits"), 1_144);
}

/// A placer keeps the arrays of its last stateless batch for their
/// capacity and rebuilds their contents from each call's `(cluster,
/// running)`, so one placer driven through many calls must return, call
/// by call, what a fresh placer returns. The seeded sequence changes one
/// field of the cluster between calls — racks, servers per rack, GPUs per
/// server, oversubscription (so only the uplink capacities move), PAT or
/// server-link capacity — or none, and allocates the GPUs of up to three
/// running jobs, so the kept topology is re-lowered or reused, the ledger
/// re-mirrored and the PS class table rebuilt on every kind of change;
/// each kind is asserted taken more than ten times. Two mutations fail it:
/// a topology compare that ignores the uplink capacities, and a PS class
/// table kept across a server-link capacity change.
#[test]
fn one_placer_across_calls_equals_a_fresh_placer_per_call() {
    let mut rng = 0x5EED_CA11_u64;
    let mut below = move |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as usize
    };
    let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
    let mut spec = ClusterSpec {
        racks: 3,
        servers_per_rack: 4,
        ..ClusterSpec::paper_default()
    };
    let mut kept = NetPackPlacer::default();
    // Calls that kept the spec, then calls that changed each field.
    let mut changes = [0usize; 7];
    for call in 0..300 {
        let change = below(changes.len());
        match change {
            1 => spec.racks = 2 + below(3),
            2 => spec.servers_per_rack = 3 + below(4),
            3 => spec.gpus_per_server = [2, 4, 8][below(3)],
            4 => spec.oversubscription = [1.0, 2.0, 4.0][below(3)],
            5 => spec.pat_gbps = [0.0, 150.0, 1000.0][below(3)],
            6 => spec.server_link_gbps = [40.0, 100.0, 400.0][below(3)],
            _ => {}
        }
        changes[change] += 1;
        let mut cluster = Cluster::new(spec.clone());
        let n = cluster.num_servers();
        let mut running = Vec::new();
        for id in 0..below(4) {
            let mut workers: Vec<(ServerId, usize)> = Vec::new();
            for _ in 0..2 + below(2) {
                let s = below(n);
                let free = cluster.free_gpus_per_server()[s] as usize;
                if free > 0 && workers.iter().all(|&(w, _)| w.0 != s) {
                    workers.push((ServerId(s), 1 + below(free)));
                }
            }
            if workers.len() < 2 {
                continue;
            }
            for &(s, w) in &workers {
                cluster.allocate_gpus(s, w).unwrap();
            }
            running.push(RunningJob {
                id: JobId(1_000 + id as u64),
                gradient_gbits: 4.0,
                placement: Placement::new(workers, Some(ServerId(below(n)))),
            });
        }
        let max_gpus = 3 * spec.gpus_per_server;
        let batch = xorshift_batch(4 + below(12), max_gpus, call + 1);
        let out = kept.place_batch(&cluster, &running, &batch);
        let fresh = NetPackPlacer::default().place_batch(&cluster, &running, &batch);
        assert_eq!(out.placed, fresh.placed, "call {call}: {spec:?}");
        assert_eq!(ids(&out.deferred), ids(&fresh.deferred), "call {call}");
    }
    assert!(changes.iter().all(|&c| c > 10), "{changes:?}");
}

/// The work of one dense batch — the first `dense_batch` input of the repo
/// benchmark at seed 1. The water-fill counts are a function of the `δ`
/// sequence and of which solves the estimator runs. A solver that takes
/// the same minima freezes the same jobs in the same rounds, so a faster
/// round mechanism must reproduce them exactly; `waterfill_link_visits`
/// counts live entries only, so an entry a freeze left in place for later
/// does not count. Which solves run is the estimator's invalidation rule,
/// and it is pinned as such: a push that cannot lower the level of the
/// one-round component it joins is absorbed without a solve — 38 of the
/// 400 here (`waterfill_warm_pushes`) — which took the rounds from 14 132
/// to 14 094, the components solved from 337 to 299, the jobs re-solved
/// from 56 953 to 56 212 and the link visits from 8 912 996 to 8 909 246,
/// and, since an absorbed push journals its own links only,
/// `index_journal_servers` from 312 508 to 308 675. An INA job's PS link
/// alone on its server fills through a refinable class, which splits when
/// a pool runs dry, instead of entry by entry: the rounds and solves did
/// not move, but that took `waterfill_lone_entries` from 228 878 to
/// 284 775 (the refinable entries count as class entries), opened 14 414
/// classes at flips (`waterfill_class_splits`), and took the link visits
/// from 8 909 246 to 2 848 767 — fewer ordinary links and entries a round,
/// and a freeze that scans the entries only in a round where an ordinary
/// link saturated. The placement counts —
/// plans, PS evaluations, DP candidates, index re-keys — are the work of
/// Algorithm 2 on those steady states, and a change of mechanism moves none
/// of them; the absorbed pushes did not. The index counts are the
/// exception, and pinned as such: one filter key for every full server,
/// and a refresh that compares each journal entry with the one key it can
/// have moved, took them from 186 759 re-keys and 72 rebuilds to 102 768
/// and 40. A class all of whose members move to one new key is now renamed
/// in place (`index_renamed`, 22 126 classes) rather than moved server by
/// server, and only the servers left over count toward the `n / 8`
/// rebuild: that took the re-keys to 14 369 and the rebuilds to 2. A rack
/// whose uplink flow count moved now moves each class present there as
/// one run of its member list, renamed in place when the run is the whole
/// class (`index_slices`, 28 runs moved): that took the re-keys to 12 995
/// and the renames to 22 129; the rebuilds stayed at 2. So is
/// the PS evaluation count: a plan whose score ceiling does
/// not clear the best score an earlier plan of its job reached evaluates
/// its own servers only, never a class representative — 12 782 of the
/// 13 344 plans — which took `ps_candidates_scored` from 2 382 798 to
/// 165 030. All of them are functions of the steady states and the scores
/// alone, so they read the same in a debug and a release build.
#[test]
fn a_dense_batch_costs_the_pinned_rounds_and_solves() {
    let cluster = Cluster::new(ClusterSpec {
        racks: 16,
        servers_per_rack: 625,
        ..ClusterSpec::paper_default()
    });
    let mut placer = NetPackPlacer::default();
    let outcome = placer.place_batch(&cluster, &[], &xorshift_batch(400, 32, 1007));
    assert_eq!(outcome.placed.len(), 400);
    let count = |name| placer.perf().counter(name);
    assert_eq!(count("waterfill_rounds"), 14_094);
    assert_eq!(count("waterfill_components_solved"), 299);
    assert_eq!(count("waterfill_warm_pushes"), 38);
    assert_eq!(count("waterfill_jobs_resolved"), 56_212);
    assert_eq!(count("waterfill_jobs_reused"), 12_742);
    assert_eq!(count("waterfill_unconverged"), 0);
    assert_eq!(count("waterfill_link_visits"), 2_848_767);
    assert_eq!(count("waterfill_lone_entries"), 284_775);
    assert_eq!(count("waterfill_class_splits"), 14_414);
    assert_eq!(count("ps_plans_ruled_out"), 12_782);
    assert_eq!(count("ps_candidates_scored"), 165_030);
    assert_eq!(count("plans_considered"), 13_344);
    assert_eq!(count("dp_candidates_kept"), 17_783);
    assert_eq!(count("index_journal_servers"), 308_675);
    assert_eq!(count("index_rekeyed"), 12_995);
    assert_eq!(count("index_rebuilds"), 2);
    assert_eq!(count("index_renamed"), 22_129);
    assert_eq!(count("index_slices"), 28);
}

#[test]
fn flow_simulator_matches_its_from_scratch_reference() {
    let trace = TraceSpec::new(TraceKind::Real, 30)
        .seed(7)
        .duration_scale(0.05)
        .max_gpus(8)
        .generate();
    // NetPack runs on one warm session; GB has none, so its manager keeps
    // stateless books and a warm estimator beside them. Both re-rate only
    // the jobs the estimator says it re-solved.
    let placers: [fn() -> Box<dyn Placer>; 2] = [
        || Box::new(NetPackPlacer::default()),
        || Box::new(GpuBalance),
    ];
    for placer in placers {
        let sim = || {
            let cluster = Cluster::new(ClusterSpec {
                racks: 2,
                servers_per_rack: 4,
                gpus_per_server: 2,
                ..ClusterSpec::paper_default()
            });
            Simulation::new(cluster, placer(), SimConfig::default())
        };
        let name = placer().name();
        let (result, oracle) = (sim().run(&trace), sim().run_reference(&trace));
        assert_eq!(result, oracle, "{name}");
        assert_eq!(result.outcomes.len(), 30, "{name}");
        // Production took the warm estimator on every solve.
        assert!(result.perf.timer_count("resolve_component") > 0, "{name}");
        assert_eq!(result.perf.timer_count("resolve_full"), 0, "{name}");
        // The same events, the same heap traffic — from fewer jobs looked at.
        for counter in ["sim_events", "heap_pushes", "heap_stale_pops"] {
            assert_eq!(
                result.perf.counter(counter),
                oracle.perf.counter(counter),
                "{name} {counter}"
            );
        }
        let (visits, full_walk) = (
            result.perf.counter("sim_rerate_visits"),
            oracle.perf.counter("sim_rerate_visits"),
        );
        assert!(
            visits >= result.perf.counter("heap_pushes"),
            "{name}: a push without a visit"
        );
        assert!(
            visits < full_walk,
            "{name}: {visits} visits against a full walk of {full_walk}"
        );
        assert_eq!(result.perf.counter("sim_finish_errors"), 0, "{name}");
    }
}

#[test]
fn packet_simulator_reproduces_the_pinned_fig14_cells() {
    // Every Fig. 14 cell: one 10 Gbps job for 0.05 s (14a), or two for
    // 0.1 s (14b), over a pool sized to a tenth to all of one job's
    // window. Per job: aggregated groups, fallback groups, iterations
    // done. Every job of a cell also pins the same goodput bits and 100
    // goodput buckets.
    const SOLO: [[u64; 3]; 10] = [
        [6_000, 55_000, 0],
        [12_000, 49_000, 0],
        [18_000, 43_000, 0],
        [24_000, 37_000, 0],
        [31_000, 30_000, 0],
        [37_000, 24_000, 0],
        [43_000, 18_000, 0],
        [49_000, 12_000, 0],
        [55_000, 6_000, 0],
        [61_000, 0, 0],
    ];
    const PAIR: [[[u64; 3]; 2]; 10] = [
        [[6_000, 115_975, 1], [6_000, 115_975, 1]],
        [[12_000, 109_975, 1], [12_000, 109_975, 1]],
        [[18_000, 103_975, 1], [18_000, 103_975, 1]],
        [[24_000, 97_975, 1], [24_000, 97_975, 1]],
        [[31_000, 90_975, 1], [31_000, 90_975, 1]],
        [[37_001, 84_974, 1], [36_999, 84_976, 1]],
        [[43_004, 78_971, 1], [42_993, 78_982, 1]],
        [[49_001, 72_974, 1], [48_987, 72_988, 1]],
        [[55_000, 66_975, 1], [54_981, 66_994, 1]],
        [[61_021, 60_954, 1], [60_975, 61_000, 1]],
    ];
    let base = SwitchConfig::default();
    for jobs in [1u64, 2] {
        for tenths in 1..=10u8 {
            let cell = format!("jobs={jobs}/pat_ratio={tenths}/10");
            let row = usize::from(tenths) - 1;
            let config = SwitchConfig {
                pool_slots: (f64::from(tenths) / 10.0 * base.rate_to_pkts(10.0) as f64).round()
                    as usize,
                ..base.clone()
            };
            let mut sim = PacketSim::new(config);
            for id in 0..jobs {
                sim.add_job(PacketJobSpec {
                    id: JobId(id),
                    fan_in: 2,
                    gradient_gbits: 0.5,
                    compute_time_s: 0.0,
                    iterations: 0,
                    start_s: 0.0,
                    target_gbps: Some(10.0),
                });
            }
            let (duration_s, rounds, goodput_bits, want) = if jobs == 1 {
                (
                    0.05,
                    1_000,
                    0x41bd_c900_0000_0000_u64,
                    std::slice::from_ref(&SOLO[row]),
                )
            } else {
                (0.1, 2_000, 0x41cd_c770_0000_0000, &PAIR[row][..])
            };
            let report = sim.run(duration_s);
            assert_eq!(report.rounds, rounds, "{cell}");
            let got: Vec<[u64; 3]> = report
                .per_job
                .iter()
                .map(|s| [s.aggregated_groups, s.fallback_groups, s.iterations_done])
                .collect();
            assert_eq!(got, want, "{cell}");
            for s in &report.per_job {
                assert_eq!(s.goodput_bits.to_bits(), goodput_bits, "{cell}");
                assert_eq!(s.goodput_series.len(), 100, "{cell}");
            }
        }
    }
}

#[test]
fn exact_placer_matches_the_exhaustive_reference() {
    // The `4x2 / 3+3` row of `table_mip_vs_dp`.
    let cluster = Cluster::new(ClusterSpec {
        racks: 1,
        servers_per_rack: 4,
        gpus_per_server: 2,
        pat_gbps: 50.0,
        ..ClusterSpec::paper_default()
    });
    let batch: Vec<Job> = (0..2)
        .map(|i| Job::builder(JobId(i), ModelKind::Vgg16, 3).build())
        .collect();
    let budget = 50_000_000;
    let mut exact = ExactPlacer::new(budget);
    let out = exact.place_batch(&cluster, &[], &batch);
    let (best, oracle_evaluations) = reference::place_exact(&cluster, &[], &batch, false, budget);
    let (oracle_obj, oracle_placed) = best.expect("the instance is feasible");
    assert_eq!(out.placed, oracle_placed);
    assert!(out.deferred.is_empty());
    let obj = batch_comm_time_s(&cluster, &[], &out.placed);
    assert_eq!(obj.to_bits(), oracle_obj.to_bits());
    assert!(
        exact.evaluations() < oracle_evaluations,
        "bnb evaluated {} leaves, the reference {oracle_evaluations}",
        exact.evaluations()
    );
    // The branch-and-bound's work depends on the instance alone.
    let nodes = exact.perf().counter("exact_nodes");
    let pruned = exact.perf().counter("exact_pruned_subtrees");
    assert_eq!([exact.evaluations(), nodes, pruned], [98, 104, 0]);
}
