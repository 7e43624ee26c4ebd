//! Prior-art placement strategies the paper compares against: Optimus,
//! Tetris, and the naive multi-resource combination `Comb` (§6.1, §6.4).

use crate::placer::{free_on, greedy_batch, place_by_order, BatchOutcome, Placer, RunningJob};
use netpack_model::Placement;
use netpack_topology::{Cluster, Server, ServerId};
use netpack_waterfill::SteadyState;
use netpack_workload::Job;

/// **Optimus** (Peng et al., EuroSys'18): sort candidate servers by
/// available GPUs and distribute workers (and the PS) evenly among the
/// minimal top-k subset that covers the demand.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimusLike;

impl OptimusLike {
    fn place_one(cluster: &Cluster, job: &Job) -> Option<Placement> {
        let mut order: Vec<&Server> =
            cluster.servers().iter().filter(|s| s.gpus_free() > 0).collect();
        order.sort_by_key(|s| std::cmp::Reverse(s.gpus_free()));
        // Minimal k whose free GPUs cover the demand.
        let mut k = 0;
        let mut covered = 0;
        for s in &order {
            k += 1;
            covered += s.gpus_free();
            if covered >= job.gpus {
                break;
            }
        }
        if covered < job.gpus {
            return None;
        }
        let top: &[&Server] = &order[..k];
        // Round-robin workers across the top-k, respecting free capacity.
        let mut assigned = vec![0usize; k];
        let mut remaining = job.gpus;
        while remaining > 0 {
            let mut progressed = false;
            for (i, s) in top.iter().enumerate() {
                if remaining == 0 {
                    break;
                }
                if assigned[i] < s.gpus_free() {
                    assigned[i] += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            debug_assert!(progressed, "coverage was checked above");
            if !progressed {
                return None;
            }
        }
        let workers: Vec<(ServerId, usize)> = top
            .iter()
            .zip(&assigned)
            .filter(|&(_, &w)| w > 0)
            .map(|(s, &w)| (s.id(), w))
            .collect();
        // PS on the least-loaded member of the subset (fewest assigned).
        let ps = if workers.len() > 1 {
            workers
                .iter()
                .min_by_key(|&&(_, w)| w)
                .map(|&(s, _)| s)
        } else {
            None
        };
        Some(Placement::new(workers, ps))
    }
}

impl Placer for OptimusLike {
    fn name(&self) -> &'static str {
        "Optimus"
    }

    fn place_batch(
        &mut self,
        cluster: &Cluster,
        _running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        greedy_batch(cluster, None, batch, |scratch, _, job, _| Self::place_one(scratch, job))
    }
}

/// **Tetris** (Grandl et al., SIGCOMM'14): assign each worker to the server
/// with the highest alignment score — the dot product between the server's
/// available resource vector (GPUs, bandwidth) and the job's demand vector.
#[derive(Debug, Clone, Copy, Default)]
pub struct TetrisLike;

impl TetrisLike {
    fn place_one(
        cluster: &Cluster,
        state: &SteadyState,
        job: &Job,
    ) -> Option<Placement> {
        let gpu_cap = cluster.spec().gpus_per_server as f64;
        let bw_cap = cluster.spec().server_link_gbps;
        // Per-worker demand: one GPU plus the model's communication
        // pressure (gradient gigabits per compute second), both normalized.
        let demand_gpu = 1.0 / gpu_cap;
        let demand_bw = (job.model.comm_intensity() / bw_cap).min(1.0);
        let mut free: Vec<usize> = cluster.servers().iter().map(|s| s.gpus_free()).collect();
        let mut chosen: Vec<(ServerId, usize)> = Vec::new();
        for _ in 0..job.gpus {
            let best = (0..free.len())
                .filter(|&i| free[i] > 0)
                .max_by(|&a, &b| {
                    let score = |i: usize| {
                        let avail_gpu = free[i] as f64 / gpu_cap;
                        let avail_bw =
                            state.server_available_gbps(ServerId(i)) / bw_cap;
                        avail_gpu * demand_gpu + avail_bw * demand_bw
                    };
                    score(a).total_cmp(&score(b)).then(b.cmp(&a))
                })?;
            free[best] -= 1;
            match chosen.iter_mut().find(|(s, _)| s.0 == best) {
                Some(e) => e.1 += 1,
                None => chosen.push((ServerId(best), 1)),
            }
        }
        let ps = if chosen.len() > 1 {
            // PS on the chosen server with the most residual bandwidth.
            chosen
                .iter()
                .max_by(|a, b| {
                    state
                        .server_available_gbps(a.0)
                        .total_cmp(&state.server_available_gbps(b.0))
                })
                .map(|&(s, _)| s)
        } else {
            None
        };
        Some(Placement::new(chosen, ps))
    }
}

impl Placer for TetrisLike {
    fn name(&self) -> &'static str {
        "Tetris"
    }

    fn place_batch(
        &mut self,
        cluster: &Cluster,
        running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        greedy_batch(cluster, Some(running), batch, |scratch, state, job, _| {
            Self::place_one(scratch, state?, job)
        })
    }
}

/// **Comb** (§6.4): the naive combination strategy — sort servers by free
/// GPUs, then residual ToR switch memory, then residual link bandwidth,
/// all descending, and take servers in that order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Comb;

impl Placer for Comb {
    fn name(&self) -> &'static str {
        "Comb"
    }

    fn place_batch(
        &mut self,
        cluster: &Cluster,
        running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        greedy_batch(cluster, Some(running), batch, |scratch, state, job, order| {
            let state = state?;
            order.clear();
            order.extend(scratch.servers().iter().map(|s| s.id()));
            order.sort_by(|&a, &b| {
                free_on(scratch, b)
                    .cmp(&free_on(scratch, a))
                    .then_with(|| {
                        state
                            .pat_residual_gbps(scratch.rack_of(b))
                            .total_cmp(&state.pat_residual_gbps(scratch.rack_of(a)))
                    })
                    .then_with(|| {
                        state
                            .server_available_gbps(b)
                            .total_cmp(&state.server_available_gbps(a))
                    })
            });
            place_by_order(scratch, order, job)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_topology::{ClusterSpec, JobId};
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
        Job::builder(JobId(id), ModelKind::Vgg16, gpus).build()
    }

    #[test]
    fn optimus_distributes_evenly_over_top_k() {
        let c = cluster();
        let out = OptimusLike.place_batch(&c, &[], &[job(0, 6)]);
        let placement = &out.placed[0].1;
        // Needs 2 servers (4+4 >= 6); round-robin gives 3+3.
        assert_eq!(placement.workers().len(), 2);
        assert!(placement.workers().iter().all(|&(_, w)| w == 3));
        assert!(placement.ps().is_some());
        placement.validate(&c, 6).unwrap();
    }

    #[test]
    fn optimus_defers_when_short_on_gpus() {
        let c = cluster();
        let out = OptimusLike.place_batch(&c, &[], &[job(0, 17)]);
        assert!(out.placed.is_empty());
        assert_eq!(out.deferred.len(), 1);
    }

    #[test]
    fn tetris_places_exact_worker_counts() {
        let c = cluster();
        let out = TetrisLike.place_batch(&c, &[], &[job(0, 5)]);
        let placement = &out.placed[0].1;
        assert_eq!(placement.total_workers(), 5);
        placement.validate(&c, 5).unwrap();
    }

    #[test]
    fn tetris_prefers_idle_servers_for_comm_heavy_jobs() {
        let mut c = cluster();
        // Load server 0's link with a running job's PS.
        let running = RunningJob {
            id: JobId(9),
            gradient_gbits: 4.4,
            placement: Placement::new(
                vec![(ServerId(1), 4), (ServerId(2), 4)],
                Some(ServerId(0)),
            ),
        };
        c.allocate_gpus(ServerId(1), 4).unwrap();
        c.allocate_gpus(ServerId(2), 4).unwrap();
        let out = TetrisLike.place_batch(&c, std::slice::from_ref(&running), &[job(0, 4)]);
        let placement = &out.placed[0].1;
        // Server 3 is idle in both GPUs and bandwidth: best alignment for
        // the first workers (alignment re-balances as its GPUs fill, so
        // later workers may spill onto server 0).
        let on_s3 = placement
            .workers()
            .iter()
            .find(|&&(s, _)| s == ServerId(3))
            .map(|&(_, w)| w)
            .unwrap_or(0);
        assert!(on_s3 >= 2, "expected most workers on the idle server, got {on_s3}");
    }

    #[test]
    fn comb_takes_servers_in_lexicographic_resource_order() {
        let mut c = cluster();
        c.allocate_gpus(ServerId(0), 2).unwrap();
        let out = Comb.place_batch(&c, &[], &[job(0, 4)]);
        let placement = &out.placed[0].1;
        // Servers 1..3 all have 4 free GPUs; server 0 only 2 — any of the
        // full servers must be first.
        assert_eq!(placement.workers().len(), 1);
        assert!(placement.workers()[0].0 >= ServerId(1));
        placement.validate(&c, 4).unwrap();
    }

    #[test]
    fn all_prior_placers_keep_ina_on() {
        let c = cluster();
        let batch = [job(0, 6)];
        for placer in [
            &mut OptimusLike as &mut dyn Placer,
            &mut TetrisLike,
            &mut Comb,
        ] {
            let out = placer.place_batch(&c, &[], &batch);
            assert!(
                out.placed.iter().all(|(_, p)| p.ina_enabled()),
                "{}",
                placer.name()
            );
        }
    }
}
