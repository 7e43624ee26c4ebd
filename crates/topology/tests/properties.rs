//! Property tests for cluster construction and the GPU ledger.

use netpack_topology::{Cluster, ClusterSpec, LinkId, ServerId};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = ClusterSpec> {
    (1usize..8, 1usize..12, 1usize..9, 1u32..21, 1u32..11, 0usize..4).prop_map(
        |(racks, spr, gps, oversub, pat, rpp)| ClusterSpec {
            racks,
            servers_per_rack: spr,
            gpus_per_server: gps,
            server_link_gbps: 100.0,
            pat_gbps: pat as f64 * 100.0,
            oversubscription: oversub as f64,
            rtt_us: 50.0,
            racks_per_pod: (rpp > 0).then_some(rpp),
        },
    )
}

proptest! {
    /// Construction lays out dense ids, consistent rack membership, and
    /// consistent totals for any valid spec.
    #[test]
    fn construction_invariants(spec in arb_spec()) {
        let c = Cluster::new(spec.clone());
        prop_assert_eq!(c.num_servers(), spec.num_servers());
        prop_assert_eq!(c.total_gpus(), spec.total_gpus());
        prop_assert_eq!(c.free_gpus(), c.total_gpus());
        prop_assert_eq!(c.num_links(), c.num_servers() + c.num_racks());
        for (i, s) in c.servers().iter().enumerate() {
            prop_assert_eq!(s.id(), ServerId(i));
            prop_assert_eq!(c.rack_of(s.id()), s.rack());
            // The rack's server list contains this server.
            let rack = c.rack(s.rack()).unwrap();
            prop_assert!(rack.server_ids().any(|id| id == s.id()));
        }
        let mut covered = 0;
        for rack in c.racks() {
            covered += rack.num_servers();
            prop_assert!((rack.uplink_gbps() - spec.rack_uplink_gbps()).abs() < 1e-9);
        }
        prop_assert_eq!(covered, c.num_servers());
    }

    /// Link indexing is a bijection over [0, num_links).
    #[test]
    fn link_index_bijection(spec in arb_spec()) {
        let c = Cluster::new(spec);
        let mut seen = vec![false; c.num_links()];
        for i in 0..c.num_links() {
            let link = LinkId::from_index(i, &c);
            let j = link.index(&c);
            prop_assert_eq!(i, j);
            prop_assert!(!seen[j]);
            seen[j] = true;
        }
    }

    /// Any sequence of allocations and releases keeps the ledger within
    /// bounds, and errors leave it untouched.
    #[test]
    fn ledger_is_conserved(
        spec in arb_spec(),
        ops in proptest::collection::vec((0usize..64, 0usize..12, any::<bool>()), 1..64),
    ) {
        let mut c = Cluster::new(spec);
        let total = c.total_gpus();
        let mut allocated = vec![0usize; c.num_servers()];
        for (srv, count, is_alloc) in ops {
            let server = ServerId(srv % c.num_servers());
            let before = c.free_gpus();
            if is_alloc {
                match c.allocate_gpus(server, count) {
                    Ok(()) => allocated[server.0] += count,
                    Err(_) => prop_assert_eq!(c.free_gpus(), before),
                }
            } else {
                match c.release_gpus(server, count) {
                    Ok(()) => allocated[server.0] -= count,
                    Err(_) => prop_assert_eq!(c.free_gpus(), before),
                }
            }
            let used: usize = allocated.iter().sum();
            prop_assert_eq!(c.free_gpus(), total - used);
        }
    }
}
