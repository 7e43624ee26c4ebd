//! The paper's heuristic baselines (§6.1): GPU-balance, Flow-balance,
//! Least-fragmentation, plus a random sanity floor.
//!
//! Baselines do not consider INA when placing (the experiments run them
//! with INA "enabled silently and transparently"): every placement they
//! emit keeps the default `ina_enabled = true`.

use crate::placer::{free_on, greedy_batch, place_by_order, BatchOutcome, Placer, RunningJob};
use netpack_topology::Cluster;
use netpack_workload::Job;

/// **GB** — GPU-balance: prefer servers with the most free GPUs, spreading
/// load by GPU count.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuBalance;

impl Placer for GpuBalance {
    fn name(&self) -> &'static str {
        "GB"
    }

    fn place_batch(
        &mut self,
        cluster: &Cluster,
        _running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        greedy_batch(cluster, None, batch, |scratch, _, job, order| {
            order.clear();
            order.extend(scratch.servers().map(|s| s.id()));
            order.sort_by_key(|&s| std::cmp::Reverse(free_on(scratch, s)));
            place_by_order(scratch, order, job)
        })
    }
}

/// **FB** — Flow-balance: prefer servers whose access link carries the
/// fewest steady-state flows (requires a water-filling pass to observe
/// flow counts, like NetPack, but uses only that single signal).
#[derive(Debug, Clone, Default)]
pub struct FlowBalance;

impl Placer for FlowBalance {
    fn name(&self) -> &'static str {
        "FB"
    }

    fn place_batch(
        &mut self,
        cluster: &Cluster,
        running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        greedy_batch(
            cluster,
            Some(running),
            batch,
            |scratch, state, job, order| {
                let state = state?;
                order.clear();
                order.extend(scratch.servers().map(|s| s.id()));
                order.sort_by(|&a, &b| {
                    state
                        .server_flows(a)
                        .cmp(&state.server_flows(b))
                        .then_with(|| free_on(scratch, b).cmp(&free_on(scratch, a)))
                });
                place_by_order(scratch, order, job)
            },
        )
    }
}

/// **LF** — Least-fragmentation: pack into already-busy servers first
/// (fewest free GPUs, but more than zero), using up running servers before
/// opening fresh ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastFragmentation;

impl Placer for LeastFragmentation {
    fn name(&self) -> &'static str {
        "LF"
    }

    fn place_batch(
        &mut self,
        cluster: &Cluster,
        _running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        greedy_batch(cluster, None, batch, |scratch, _, job, order| {
            order.clear();
            order.extend(
                scratch
                    .servers()
                    .filter(|s| s.gpus_free() > 0)
                    .map(|s| s.id()),
            );
            // Partially-used servers first (ascending free GPUs among
            // used ones), then untouched servers.
            order.sort_by_key(|&s| {
                scratch
                    .server(s)
                    .map_or((true, 0), |srv| (srv.gpus_used() == 0, srv.gpus_free()))
            });
            place_by_order(scratch, order, job)
        })
    }
}

/// Uniform-random placement: the sanity floor for every comparison.
#[derive(Debug, Clone)]
pub struct RandomPlacer {
    state: u64,
}

impl RandomPlacer {
    /// Deterministic placer seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        RandomPlacer { state: seed.max(1) }
    }

    fn next(&mut self) -> u64 {
        // xorshift64*.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl Default for RandomPlacer {
    fn default() -> Self {
        RandomPlacer::new(0xC0FFEE)
    }
}

impl Placer for RandomPlacer {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn place_batch(
        &mut self,
        cluster: &Cluster,
        _running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        greedy_batch(cluster, None, batch, |scratch, _, job, order| {
            order.clear();
            order.extend(scratch.servers().map(|s| s.id()));
            // Fisher-Yates with the internal xorshift.
            for i in (1..order.len()).rev() {
                let j = (self.next() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            place_by_order(scratch, order, job)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_model::Placement;
    use netpack_topology::{ClusterSpec, JobId, ServerId};
    use netpack_workload::ModelKind;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 4,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        })
    }

    fn job(id: u64, gpus: usize) -> Job {
        Job::builder(JobId(id), ModelKind::ResNet50, gpus).build()
    }

    #[test]
    fn gpu_balance_prefers_the_emptiest_servers() {
        let mut c = cluster();
        c.allocate_gpus(ServerId(0), 3).unwrap();
        c.allocate_gpus(ServerId(1), 2).unwrap();
        let out = GpuBalance.place_batch(&c, &[], &[job(0, 4)]);
        let placement = &out.placed[0].1;
        // Servers 2 and 3 have 4 free each; the job lands on one of them.
        assert_eq!(placement.workers().len(), 1);
        assert!(placement.workers()[0].0 >= ServerId(2));
    }

    #[test]
    fn least_fragmentation_packs_partial_servers_first() {
        let mut c = cluster();
        c.allocate_gpus(ServerId(2), 3).unwrap();
        let out = LeastFragmentation.place_batch(&c, &[], &[job(0, 3)]);
        let placement = &out.placed[0].1;
        // Server 2 (1 free) is used up first, then the next candidates
        // (workers() reports server-id order, not preference order).
        assert!(placement.workers().contains(&(ServerId(2), 1)));
        assert_eq!(placement.total_workers(), 3);
    }

    #[test]
    fn flow_balance_avoids_servers_with_running_flows() {
        let mut c = cluster();
        // A running job loads server 0's link with a PS fan-in.
        let running = RunningJob {
            id: JobId(9),
            gradient_gbits: 4.0,
            placement: Placement::new(vec![(ServerId(1), 2), (ServerId(2), 2)], Some(ServerId(0))),
        };
        c.allocate_gpus(ServerId(1), 2).unwrap();
        c.allocate_gpus(ServerId(2), 2).unwrap();
        let out = FlowBalance.place_batch(&c, std::slice::from_ref(&running), &[job(0, 4)]);
        let placement = &out.placed[0].1;
        // Server 3 carries no flows; it must be the first choice.
        assert_eq!(placement.workers()[0].0, ServerId(3));
    }

    #[test]
    fn random_placer_is_deterministic_per_seed() {
        let c = cluster();
        let batch = [job(0, 4), job(1, 4), job(2, 4)];
        let a = RandomPlacer::new(7).place_batch(&c, &[], &batch);
        let b = RandomPlacer::new(7).place_batch(&c, &[], &batch);
        let c2 = RandomPlacer::new(8).place_batch(&c, &[], &batch);
        let key = |o: &BatchOutcome| {
            o.placed
                .iter()
                .map(|(j, p)| (j.id, p.workers().to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        // Different seeds usually differ (not guaranteed, but this seed
        // pair does).
        assert_ne!(key(&a), key(&c2));
    }

    #[test]
    fn baselines_defer_when_cluster_is_full() {
        let c = cluster();
        let big = job(0, 17);
        for placer in [&mut GpuBalance as &mut dyn Placer, &mut LeastFragmentation] {
            let out = placer.place_batch(&c, &[], std::slice::from_ref(&big));
            assert!(out.placed.is_empty(), "{}", placer.name());
            assert_eq!(out.deferred.len(), 1);
        }
    }

    #[test]
    fn baselines_keep_ina_enabled() {
        let c = cluster();
        let out = GpuBalance.place_batch(&c, &[], &[job(0, 6)]);
        assert!(out.placed.iter().all(|(_, p)| p.ina_enabled()));
    }
}
