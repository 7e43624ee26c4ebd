//! Tier-1 sees the oracle: `cargo test -q` runs only this root package, so
//! the production ≡ reference contract of `netpack-placement` (whose full
//! property suite runs under `scripts/check.sh`) is pinned here on the
//! four Fig. 10 quick cells, one ragged three-tier fat-tree, and one dense
//! cell (2 racks x 64 servers, 60 jobs around a running cross-rack job)
//! where many servers per rack share a PS class with the plan's own.

use netpack::placement::{batch_comm_time_s, reference, RunningJob};
use netpack::prelude::*;
use netpack::workload::xorshift_batch;

#[test]
fn production_matches_the_literal_algorithm() {
    let mut cells: Vec<(Cluster, Vec<RunningJob>, Vec<Job>)> = Vec::new();
    for servers in [100usize, 400] {
        for jobs in [50usize, 100] {
            let spec = ClusterSpec {
                racks: 16,
                servers_per_rack: servers / 16,
                ..ClusterSpec::paper_default()
            };
            cells.push((Cluster::new(spec), vec![], xorshift_batch(jobs, 32, 7)));
        }
    }
    // Seven racks in pods of three: the last pod is ragged.
    let ragged = ClusterSpec {
        racks: 7,
        servers_per_rack: 5,
        gpus_per_server: 4,
        racks_per_pod: Some(3),
        ..ClusterSpec::paper_default()
    };
    cells.push((Cluster::new(ragged), vec![], xorshift_batch(40, 32, 7)));
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
    cells.push((dense, vec![running], xorshift_batch(60, 32, 7)));

    let ids = |jobs: &[Job]| jobs.iter().map(|j| j.id).collect::<Vec<_>>();
    for (cluster, running, batch) in cells {
        let cell = format!("servers={}/jobs={}", cluster.num_servers(), batch.len());
        let oracle = reference::place_batch(&NetPackConfig::default(), &cluster, &running, &batch);
        let oracle_obj = batch_comm_time_s(&cluster, &running, &oracle.placed);
        for threads in [1usize, 4] {
            let mut placer = NetPackPlacer::new(NetPackConfig {
                threads: Some(threads),
                ..NetPackConfig::default()
            });
            let out = placer.place_batch(&cluster, &running, &batch);
            assert_eq!(out.placed, oracle.placed, "{cell} threads={threads}");
            assert_eq!(ids(&out.deferred), ids(&oracle.deferred), "{cell} threads={threads}");
            let obj = batch_comm_time_s(&cluster, &running, &out.placed);
            assert_eq!(obj.to_bits(), oracle_obj.to_bits(), "{cell} threads={threads}");
            assert_eq!(placer.perf().counter("waterfill_unconverged"), 0, "{cell}");
            // Every cell must have put the per-rack class dedup to work.
            assert!(placer.perf().counter("ps_rack_servers_skipped") > 0, "{cell}");
        }
    }
}
