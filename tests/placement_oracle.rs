//! Tier-1 sees the oracle: `cargo test -q` runs only this root package, so
//! the production ≡ reference contract of `netpack-placement` (whose full
//! property suite runs under `scripts/check.sh`) is pinned here on the
//! four Fig. 10 quick cells and one ragged three-tier fat-tree.

use netpack::placement::{batch_comm_time_s, reference};
use netpack::prelude::*;

/// Deterministic mixed batch of the `fig10_placement_time` binary.
fn xorshift_batch(jobs: usize, max_gpus: usize, seed: u64) -> Vec<Job> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..jobs)
        .map(|i| {
            let gpus = (next() % max_gpus as u64).max(1) as usize;
            let model = ModelKind::ALL[(next() % 6) as usize];
            Job::builder(JobId(i as u64), model, gpus).build()
        })
        .collect()
}

#[test]
fn production_matches_the_literal_algorithm() {
    let mut cells: Vec<(ClusterSpec, usize)> = Vec::new();
    for servers in [100usize, 400] {
        for jobs in [50usize, 100] {
            let spec = ClusterSpec {
                racks: 16,
                servers_per_rack: servers / 16,
                ..ClusterSpec::paper_default()
            };
            cells.push((spec, jobs));
        }
    }
    // Seven racks in pods of three: the last pod is ragged.
    cells.push((
        ClusterSpec {
            racks: 7,
            servers_per_rack: 5,
            gpus_per_server: 4,
            racks_per_pod: Some(3),
            ..ClusterSpec::paper_default()
        },
        40,
    ));

    let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
    for (spec, jobs) in cells {
        let cluster = Cluster::new(spec);
        let batch = xorshift_batch(jobs, 32, 7);
        let cell = format!("servers={}/jobs={jobs}", cluster.num_servers());
        let oracle = reference::place_batch(&NetPackConfig::default(), &cluster, &[], &batch);
        let oracle_obj = batch_comm_time_s(&cluster, &[], &oracle.placed);
        for threads in [1usize, 4] {
            let mut placer = NetPackPlacer::new(NetPackConfig {
                threads: Some(threads),
                ..NetPackConfig::default()
            });
            let out = placer.place_batch(&cluster, &[], &batch);
            assert_eq!(out.placed, oracle.placed, "{cell} threads={threads}");
            assert_eq!(ids(&out.deferred), ids(&oracle.deferred), "{cell} threads={threads}");
            let obj = batch_comm_time_s(&cluster, &[], &out.placed);
            assert_eq!(obj.to_bits(), oracle_obj.to_bits(), "{cell} threads={threads}");
        }
    }
}
