//! The packed-cluster generator: seeded placements packed the way NetPack
//! packs. The crate's literal-loop oracle (`src/literal.rs`) includes this
//! file by path, and `tests/properties.rs` as a module.

use netpack_model::Placement;
use netpack_topology::{Cluster, ClusterSpec, ServerId};
use std::collections::BTreeMap;

/// Deterministic xorshift so the packed cases are seeded and reproducible.
pub struct Rng(pub u64);

impl Rng {
    pub fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// A cluster with room, packed the way NetPack packs: 4–8 racks of 8–16
/// servers with 4 or 8 GPUs; 3–18 jobs of 1–5 worker servers, most of them
/// servers nobody else holds (a deck dealt without replacement) and two in
/// three taken whole (`w = gpus_per_server`), the rest shared or partial;
/// one or two PSes, on a worker server, on a server of their own, or
/// anywhere; INA on for two jobs in three. PAT runs from absent through
/// "dries in round 1" (0.5 Gbps against 100 Gbps links) to "never binds",
/// by way of 25, 50 and 100 Gbps, which a pool's only job drains in the
/// very round its own 4-, 2- or 1-flow link saturates.
pub fn packed_case(seed: u64) -> (Cluster, Vec<Placement>) {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let gps = [4, 8][rng.below(2)];
    let cluster = Cluster::new(ClusterSpec {
        racks: 4 + rng.below(5),
        servers_per_rack: 8 + rng.below(9),
        gpus_per_server: gps,
        server_link_gbps: 100.0,
        pat_gbps: [0.0, 0.5, 3.0, 12.0, 25.0, 40.0, 50.0, 100.0, 150.0, 5000.0][rng.below(10)],
        oversubscription: (1 + rng.below(3)) as f64,
        rtt_us: 50.0,
        racks_per_pod: None,
    });
    let ns = cluster.num_servers();
    let mut deck: Vec<usize> = (0..ns).collect();
    for i in (1..ns).rev() {
        deck.swap(i, rng.below(i + 1));
    }
    let jobs = (0..3 + rng.below(16))
        .map(|_| {
            let mut workers = BTreeMap::new();
            for _ in 0..1 + rng.below(5) {
                let own = if rng.below(8) > 0 { deck.pop() } else { None };
                let w = if rng.below(3) > 0 {
                    gps
                } else {
                    1 + rng.below(gps)
                };
                workers.insert(own.unwrap_or_else(|| rng.below(ns)), w);
            }
            let held: Vec<usize> = workers.keys().copied().collect();
            let pses = (0..1 + rng.below(4) / 3)
                .map(|_| match rng.below(3) {
                    0 => held[rng.below(held.len())],
                    1 => deck.pop().unwrap_or(0),
                    _ => rng.below(ns),
                })
                .map(ServerId)
                .collect();
            let workers = workers.into_iter().map(|(s, w)| (ServerId(s), w)).collect();
            let mut p = Placement::new_sharded(workers, pses);
            p.set_ina_enabled(rng.below(3) > 0);
            p
        })
        .collect();
    (cluster, jobs)
}
