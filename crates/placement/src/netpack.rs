//! The NetPack placer — the paper's Algorithm 2.

use crate::placer::{BatchOutcome, Placer, RunningJob};
use crate::session::NetPackSession;
use netpack_metrics::PerfCounters;
use netpack_model::{JobHierarchy, Placement};
use netpack_topology::{Cluster, RackId, ServerId};
use netpack_waterfill::{SteadyState, WaterfillStats};
use netpack_workload::Job;

/// How the PS-placement score treats the hot-spot term of Equation 1.
///
/// Equation 1 as printed *subtracts* `C/f_max`, which rewards hot-spots —
/// the opposite of the paper's stated intent ("a penalty to punish plans
/// with hot-spot servers", and in §5.2's oversubscription discussion "the
/// new penalty prevents the algorithm from placing jobs across multiple
/// racks"). We read the sign as a typo; both variants are implemented and
/// the `ablation_hotspot` bench compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HotSpotTerm {
    /// Add the job's expected bottleneck share `C/(f_max+1)` (and, across
    /// oversubscribed racks, `min(C_rack/(FC_r + n_r), C/(f_max+1))`) as a
    /// reward — the typo-corrected reading, and the default.
    #[default]
    RewardBottleneckShare,
    /// Subtract `C/f_max` exactly as Equation 1 prints it.
    PaperLiteral,
}

/// How step 4 (selective INA enabling) is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InaPolicy {
    /// The paper's policy: sort placed jobs by aggregation efficiency and
    /// enable INA in that order until switch memory runs out.
    #[default]
    Selective,
    /// Enable INA for every job (what the baselines do implicitly).
    AlwaysOn,
    /// Disable INA for every placed job.
    AlwaysOff,
}

/// Tunable knobs of [`NetPackPlacer`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetPackConfig {
    /// Hot-spot term variant (see [`HotSpotTerm`]).
    pub hotspot: HotSpotTerm,
    /// INA-enable policy (see [`InaPolicy`]).
    pub ina_policy: InaPolicy,
    /// Clamp for the DP's flow dimension (`FS_max`).
    pub fs_max: u32,
    /// Track the two-dimensional `(f, g)` knapsack weight. Disabling this
    /// is the ablation that collapses the DP to a plain GPU knapsack.
    pub flow_dimension: bool,
    /// Parameter servers per spanning job (gradient shards, §4.1). The
    /// paper's Algorithm 2 places one PS; values above 1 shard the
    /// gradient over the k best-scoring PS locations, relieving PS-side
    /// fan-in bottlenecks at the cost of extra flows.
    pub pses_per_job: usize,
    /// Inert: the placer places a job on one thread and reads no worker
    /// count. The field stays only because the benchmark adapter sets and
    /// echoes it; ROADMAP item 1(d) moves that pinning off it and deletes
    /// it. Nothing else sets it.
    pub threads: Option<usize>,
}

impl Default for NetPackConfig {
    fn default() -> Self {
        NetPackConfig {
            hotspot: HotSpotTerm::default(),
            ina_policy: InaPolicy::default(),
            fs_max: 16,
            flow_dimension: true,
            pses_per_job: 1,
            threads: None,
        }
    }
}

/// Fold water-filling `work` (an estimator's counters, or the difference of
/// two readings) into the placer's `waterfill_*` perf counters.
pub(crate) fn record_waterfill(perf: &mut PerfCounters, work: WaterfillStats) {
    perf.incr("waterfill_pushes", work.pushes);
    perf.incr("waterfill_staged_ops", work.staged);
    perf.incr("waterfill_settles", work.settles);
    perf.incr("waterfill_jobs_resolved", work.jobs_resolved);
    perf.incr("waterfill_jobs_reused", work.jobs_reused);
    perf.incr("waterfill_components_solved", work.components_solved);
    perf.incr("waterfill_warm_pushes", work.warm_pushes);
    perf.incr("waterfill_rounds", work.rounds);
    perf.incr("waterfill_link_visits", work.link_visits);
    perf.incr("waterfill_lone_entries", work.lone_entries);
    perf.incr("waterfill_class_splits", work.class_splits);
    perf.incr("waterfill_unconverged", work.unconverged);
}

/// The paper's job-placement system (Algorithm 2):
///
/// 1. **FindSubset** — knapsack over free GPUs, maximizing aged job value;
/// 2. **WorkerPlacement** — `V[s][f][g]` DP over servers valued by their
///    water-filled residual bandwidth;
/// 3. **PSPlacement** — exhaustive scoring of every (plan, PS server) pair
///    with the hot-spot / oversubscription term;
/// 4. **INAEnable** — aggregation-efficiency-ordered selective enabling.
///
/// See the crate-level example for basic usage.
#[derive(Debug, Clone)]
pub struct NetPackPlacer {
    pub(crate) config: NetPackConfig,
    pub(crate) perf: PerfCounters,
}

impl Default for NetPackPlacer {
    fn default() -> Self {
        NetPackPlacer::new(NetPackConfig::default())
    }
}

impl NetPackPlacer {
    /// Placer with explicit configuration.
    pub fn new(config: NetPackConfig) -> Self {
        NetPackPlacer {
            config,
            perf: PerfCounters::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &NetPackConfig {
        &self.config
    }

    /// Perf counters accumulated over every `place_batch` call so far:
    /// water-fill work (`waterfill_*`, of which `waterfill_unconverged`
    /// must read 0), candidate-scoring volume (`plans_considered`,
    /// `ps_candidates_scored`, `ps_rack_servers_skipped`,
    /// `ps_plans_ruled_out`), server-index upkeep
    /// (`index_*`), and phase timers (`place_batch`, `place_one`,
    /// `worker_dp`, `ps_scoring`, `waterfill_solve`).
    pub fn perf(&self) -> &PerfCounters {
        &self.perf
    }

    /// Move the accumulated perf counters out, leaving a fresh set —
    /// what the benches call between measurement windows.
    pub fn take_perf(&mut self) -> PerfCounters {
        std::mem::take(&mut self.perf)
    }

    /// Heuristic value of a server (Algorithm 2 line 16):
    /// `bw̄ − (C − bw̄)/(flows + 1)` — its residual bandwidth minus the
    /// throughput loss the new job would inflict on the flows already there.
    pub(crate) fn server_value(capacity: f64, avail: f64, flows: u32) -> f64 {
        avail - (capacity - avail) / (f64::from(flows) + 1.0)
    }

    /// The Equation-1 hot-spot / oversubscription term.
    pub(crate) fn hotspot_term(
        &self,
        cluster: &Cluster,
        state: &SteadyState,
        rack_workers: &[(RackId, u32)],
        ps: ServerId,
        f_max: u32,
    ) -> f64 {
        let capacity = cluster.spec().server_link_gbps;
        let ps_rack = cluster.rack_of(ps);
        let cross_rack = rack_workers.iter().any(|&(r, _)| r != ps_rack);
        if !cross_rack {
            // Plan and PS share a rack: no uplink is crossed.
            return match self.config.hotspot {
                HotSpotTerm::PaperLiteral => -(capacity / f64::from(f_max.max(1))),
                HotSpotTerm::RewardBottleneckShare => capacity / (f64::from(f_max) + 1.0),
            };
        }
        let share = capacity / (f64::from(f_max) + 1.0);
        match self.config.hotspot {
            HotSpotTerm::PaperLiteral => {
                let literal = capacity / f64::from(f_max.max(1));
                let worst =
                    Self::fold_rack_shares(cluster, state, rack_workers, ps_rack, share, f64::max);
                -worst.max(literal)
            }
            HotSpotTerm::RewardBottleneckShare => {
                Self::fold_rack_shares(cluster, state, rack_workers, ps_rack, share, f64::min)
            }
        }
    }

    /// Fold `pick` from `init` over the expected per-flow share on each
    /// rack uplink the job would cross — the plan's racks in order, then
    /// the PS rack: `C_rack / (FC_r + n_r)` with `FC_r` the existing uplink
    /// flows and `n_r` the flows this job adds. Runs once per PS
    /// evaluation, millions of times a batch, so nothing is collected.
    fn fold_rack_shares(
        cluster: &Cluster,
        state: &SteadyState,
        rack_workers: &[(RackId, u32)],
        ps_rack: RackId,
        init: f64,
        pick: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        let share = |r: RackId, added: u32| {
            let fc = state.link_flows(netpack_topology::LinkId::RackUplink(r), cluster);
            cluster.racks()[r.0].uplink_gbps() / f64::from(fc + added)
        };
        let mut inbound = 0u32;
        let mut acc = init;
        for &(r, w) in rack_workers {
            if r == ps_rack {
                continue;
            }
            // Pessimistic flow estimate: every worker in the rack streams
            // through the uplink unaggregated.
            acc = pick(acc, share(r, w));
            inbound += w;
        }
        if inbound > 0 {
            acc = pick(acc, share(ps_rack, inbound));
        }
        acc
    }

    /// Step 4: selective INA enabling by aggregation efficiency.
    ///
    /// `state` is the steady state over running + placed jobs with batch
    /// placements still INA-enabled — each job's throughput for the AE
    /// metric. The incremental estimator ends the batch holding exactly
    /// this state; [`crate::reference`] solves it from scratch.
    pub(crate) fn enable_ina(
        &self,
        cluster: &Cluster,
        running: &[RunningJob],
        placed: &mut [(Job, Placement)],
        state: &SteadyState,
    ) {
        match self.config.ina_policy {
            InaPolicy::AlwaysOn => return, // placements start INA-enabled
            InaPolicy::AlwaysOff => {
                for (_, p) in placed.iter_mut() {
                    p.set_ina_enabled(false);
                }
                return;
            }
            InaPolicy::Selective => {}
        }

        // Budget per rack: PAT minus what running INA jobs already draw.
        let mut budget: Vec<f64> = cluster.racks().iter().map(|r| r.pat_gbps()).collect();
        for r in running {
            if !r.placement.ina_enabled() {
                continue;
            }
            let components = JobHierarchy::components_from_placement(cluster, &r.placement);
            if let Some(rate) = state.job_rate_gbps(r.id) {
                if rate.is_finite() {
                    for h in &components {
                        for rack in h.switches() {
                            budget[rack.0] -= rate;
                        }
                    }
                }
            }
        }

        // AE = throughput x total incoming flows at the job's switches
        // (summed over gradient shards for multi-PS placements).
        let mut order: Vec<(usize, f64, f64, Vec<RackId>)> = Vec::new();
        for (i, (job, p)) in placed.iter().enumerate() {
            let components = JobHierarchy::components_from_placement(cluster, p);
            if components.is_empty() {
                continue; // local jobs don't use INA
            }
            let rate = state.job_rate_gbps(job.id).unwrap_or(0.0);
            if !rate.is_finite() || rate <= 0.0 {
                continue;
            }
            let mut switches = Vec::new();
            let mut fan_in = 0u32;
            for h in &components {
                for r in h.switches() {
                    fan_in += h.incoming_flows(r, |_| true).unwrap_or(0);
                    switches.push(r);
                }
            }
            order.push((i, rate * f64::from(fan_in), rate, switches));
        }
        order.sort_by(|a, b| {
            b.1.total_cmp(&a.1)
                .then(placed[a.0].0.id.cmp(&placed[b.0].0.id))
        });

        // "Enable INA for these jobs ... until using up the switch memory":
        // a job keeps INA while every switch it aggregates at still has
        // memory left; the marginal job may overshoot the budget (slots
        // are shared statistically, not reserved), and only jobs arriving
        // after a switch is fully spoken for are turned off.
        for (i, _ae, rate, switches) in order {
            let fits = switches.iter().all(|&r| budget[r.0] > 0.0);
            if fits {
                for &r in &switches {
                    budget[r.0] -= rate;
                }
                placed[i].1.set_ina_enabled(true);
            } else {
                placed[i].1.set_ina_enabled(false);
            }
        }
    }
}

impl Placer for NetPackPlacer {
    fn name(&self) -> &'static str {
        "NetPack"
    }

    fn place_batch(
        &mut self,
        cluster: &Cluster,
        running: &[RunningJob],
        batch: &[Job],
    ) -> BatchOutcome {
        self.place_batch_flat(cluster, running, batch)
    }

    /// The session inherits the configuration whole.
    fn open_session(&self, cluster: &Cluster) -> Option<NetPackSession> {
        Some(NetPackSession::new(cluster.clone(), self.config.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_topology::{ClusterSpec, JobId, ServerId};
    use netpack_waterfill::estimate;
    use netpack_workload::ModelKind;

    fn cluster(racks: usize, spr: usize, gps: usize) -> Cluster {
        Cluster::new(ClusterSpec {
            racks,
            servers_per_rack: spr,
            gpus_per_server: gps,
            ..ClusterSpec::paper_default()
        })
    }

    fn job(id: u64, gpus: usize) -> Job {
        Job::builder(JobId(id), ModelKind::Vgg16, gpus).build()
    }

    #[test]
    fn single_server_jobs_go_local() {
        let c = cluster(1, 3, 4);
        let mut p = NetPackPlacer::default();
        let out = p.place_batch(&c, &[], &[job(0, 4)]);
        assert_eq!(out.placed.len(), 1);
        let placement = &out.placed[0].1;
        assert!(placement.is_local());
        assert_eq!(placement.total_workers(), 4);
    }

    #[test]
    fn spanning_jobs_get_a_ps_and_exact_gpus() {
        let c = cluster(1, 3, 4);
        let mut p = NetPackPlacer::default();
        let out = p.place_batch(&c, &[], &[job(0, 6)]);
        assert_eq!(out.placed.len(), 1);
        let placement = &out.placed[0].1;
        assert_eq!(placement.total_workers(), 6);
        assert!(placement.ps().is_some());
        placement.validate(&c, 6).unwrap();
    }

    #[test]
    fn batch_respects_gpu_capacity_via_knapsack() {
        let c = cluster(1, 2, 4);
        let mut p = NetPackPlacer::default();
        // 8 GPUs total; jobs demand 6+6: only one fits.
        let out = p.place_batch(&c, &[], &[job(0, 6), job(1, 6)]);
        assert_eq!(out.placed.len(), 1);
        assert_eq!(out.deferred.len(), 1);
    }

    #[test]
    fn oversized_jobs_are_deferred() {
        let c = cluster(1, 2, 2);
        let mut p = NetPackPlacer::default();
        let out = p.place_batch(&c, &[], &[job(0, 100)]);
        assert!(out.placed.is_empty());
        assert_eq!(out.deferred.len(), 1);
    }

    #[test]
    fn placements_avoid_hot_servers() {
        let mut c = cluster(1, 4, 4);
        // Server 0 is busy hosting a running job's PS fan-in.
        let running = RunningJob {
            id: JobId(100),
            gradient_gbits: 4.0,
            placement: Placement::new(vec![(ServerId(1), 2), (ServerId(2), 2)], Some(ServerId(0))),
        };
        c.allocate_gpus(ServerId(1), 2).unwrap();
        c.allocate_gpus(ServerId(2), 2).unwrap();
        // New 6-GPU job must span servers; it should prefer 3 (idle) and
        // avoid piling its PS onto server 0.
        let mut p = NetPackPlacer::default();
        let out = p.place_batch(&c, std::slice::from_ref(&running), &[job(0, 6)]);
        assert_eq!(out.placed.len(), 1);
        let placement = &out.placed[0].1;
        placement.validate(&c, 6).unwrap();
        assert!(placement.workers().iter().any(|&(s, _)| s == ServerId(3)));
    }

    #[test]
    fn ina_always_off_policy_disables_every_placement() {
        let c = cluster(1, 4, 2);
        let mut p = NetPackPlacer::new(NetPackConfig {
            ina_policy: InaPolicy::AlwaysOff,
            ..NetPackConfig::default()
        });
        let out = p.place_batch(&c, &[], &[job(0, 6)]);
        assert!(out.placed.iter().all(|(_, pl)| !pl.ina_enabled()));
    }

    #[test]
    fn selective_ina_respects_switch_budget() {
        // PAT so small that at most one job can aggregate.
        let c = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 6,
            gpus_per_server: 2,
            pat_gbps: 30.0,
            ..ClusterSpec::paper_default()
        });
        let mut p = NetPackPlacer::default();
        let out = p.place_batch(&c, &[], &[job(0, 4), job(1, 4), job(2, 4)]);
        assert_eq!(out.placed.len(), 3);
        let enabled = out
            .placed
            .iter()
            .filter(|(_, pl)| !pl.is_local() && pl.ina_enabled())
            .count();
        // 3 spanning jobs at ~tens of Gbps each cannot all fit in 30 Gbps
        // of PAT; selective enabling must turn at least one off.
        assert!(enabled < 3, "expected selective disabling, got {enabled}");
    }

    /// Regression pin for the budget arithmetic in `enable_ina`
    /// ("Enable INA ... until using up the switch memory"): the *marginal*
    /// job is allowed to overshoot the remaining PAT budget — slots are
    /// shared statistically, not reserved — but every job ordered after a
    /// fully-spoken-for switch must be turned off. Net effect: per switch,
    /// the enabled jobs' total draw exceeds the PAT budget by strictly
    /// less than one job's rate.
    #[test]
    fn selective_ina_overshoots_by_at_most_one_job() {
        let c = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 9,
            gpus_per_server: 4,
            pat_gbps: 50.0,
            ..ClusterSpec::paper_default()
        });
        // Three identical spanning jobs: 2 workers + 1 PS each, disjoint
        // servers, all sharing the one switch's 50 Gbps PAT pool.
        let mk = |i: usize| {
            let job = Job::builder(JobId(i as u64), ModelKind::Vgg16, 2).build();
            let p = Placement::new(
                vec![(ServerId(3 * i), 1), (ServerId(3 * i + 1), 1)],
                Some(ServerId(3 * i + 2)),
            );
            (job, p)
        };
        let mut placed = vec![mk(0), mk(1), mk(2)];
        let placer = NetPackPlacer::default();

        // The AE metric uses the all-INA-on steady state; by symmetry all
        // three jobs converge to the same rate, and 50 Gbps of PAT shared
        // three ways exhausts below it, so each job alone exceeds the
        // whole budget.
        let all: Vec<netpack_waterfill::PlacedJob> = (0..3)
            .map(|i| netpack_waterfill::PlacedJob::new(JobId(i), &c, &mk(i as usize).1))
            .collect();
        let state = estimate(&c, &all);
        let rate = state.job_rate_gbps(JobId(0)).unwrap();
        assert!(
            rate > 50.0,
            "test premise: one job overshoots alone, rate {rate}"
        );
        placer.enable_ina(&c, &[], &mut placed, &state);

        // The marginal (first, highest-AE) job must still be enabled —
        // a positive budget admits it even though its draw exceeds the
        // budget — and every later job must be cut.
        let enabled: Vec<f64> = placed
            .iter()
            .filter(|(_, p)| p.ina_enabled())
            .map(|(j, _)| state.job_rate_gbps(j.id).unwrap())
            .collect();
        assert_eq!(enabled.len(), 1, "exactly the marginal job stays on");
        assert!(placed[0].1.ina_enabled(), "ties break toward the lowest id");

        // The pinned invariant: remove the last-admitted job and the rest
        // fits in the budget — overshoot is at most one job deep.
        let total: f64 = enabled.iter().sum();
        let min_enabled = enabled.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(total > 50.0, "the marginal job is allowed to overshoot");
        assert!(total - min_enabled <= 50.0 + 1e-9);

        // With a budget big enough for one-and-a-bit jobs, two are
        // admitted (the second being the overshooting marginal one) and
        // the third is cut: overshoot still at most one job deep.
        let c2 = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 9,
            gpus_per_server: 4,
            pat_gbps: 120.0,
            ..ClusterSpec::paper_default()
        });
        let mut placed2 = vec![mk(0), mk(1), mk(2)];
        let all2: Vec<netpack_waterfill::PlacedJob> = (0..3)
            .map(|i| netpack_waterfill::PlacedJob::new(JobId(i), &c2, &mk(i as usize).1))
            .collect();
        let state2 = estimate(&c2, &all2);
        placer.enable_ina(&c2, &[], &mut placed2, &state2);
        let enabled2: Vec<f64> = placed2
            .iter()
            .filter(|(_, p)| p.ina_enabled())
            .map(|(j, _)| state2.job_rate_gbps(j.id).unwrap())
            .collect();
        assert_eq!(
            enabled2.len(),
            2,
            "budget admits one full + one marginal job"
        );
        let total2: f64 = enabled2.iter().sum();
        let min2 = enabled2.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(total2 > 120.0);
        assert!(total2 - min2 <= 120.0 + 1e-9);
    }

    #[test]
    fn paper_literal_hotspot_variant_still_places_validly() {
        let c = cluster(2, 3, 2);
        let mut p = NetPackPlacer::new(NetPackConfig {
            hotspot: HotSpotTerm::PaperLiteral,
            ..NetPackConfig::default()
        });
        let out = p.place_batch(&c, &[], &[job(0, 5)]);
        assert_eq!(out.placed.len(), 1);
        out.placed[0].1.validate(&c, 5).unwrap();
    }

    #[test]
    fn flow_dimension_ablation_places_validly() {
        let c = cluster(2, 3, 2);
        let mut p = NetPackPlacer::new(NetPackConfig {
            flow_dimension: false,
            ..NetPackConfig::default()
        });
        let out = p.place_batch(&c, &[], &[job(0, 5)]);
        assert_eq!(out.placed.len(), 1);
        out.placed[0].1.validate(&c, 5).unwrap();
    }

    #[test]
    fn value_ordering_places_high_value_jobs_first() {
        let c = cluster(1, 2, 4);
        let low = Job::builder(JobId(0), ModelKind::Vgg16, 8)
            .value(1.0)
            .build();
        let high = Job::builder(JobId(1), ModelKind::Vgg16, 8)
            .value(5.0)
            .build();
        let mut p = NetPackPlacer::default();
        // Both want all 8 GPUs; knapsack can satisfy only one: the valuable.
        let out = p.place_batch(&c, &[], &[low, high]);
        assert_eq!(out.placed.len(), 1);
        assert_eq!(out.placed[0].0.id, JobId(1));
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;
    use netpack_topology::{ClusterSpec, JobId};
    use netpack_workload::ModelKind;

    #[test]
    fn multi_ps_config_produces_sharded_placements() {
        let c = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 6,
            gpus_per_server: 2,
            ..ClusterSpec::paper_default()
        });
        let job = Job::builder(JobId(0), ModelKind::Vgg16, 6).build();
        let mut placer = NetPackPlacer::new(NetPackConfig {
            pses_per_job: 2,
            ..NetPackConfig::default()
        });
        let out = placer.place_batch(&c, &[], std::slice::from_ref(&job));
        assert_eq!(out.placed.len(), 1);
        let placement = &out.placed[0].1;
        placement.validate(&c, 6).unwrap();
        assert_eq!(placement.pses().len(), 2);
        assert_eq!(placement.shards(), 2);
    }

    #[test]
    fn sharding_improves_comm_time_under_ps_bottleneck() {
        // Large fan-in, no INA: the PS access link dominates, so two
        // shards should strictly reduce the evaluated communication time.
        let c = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 6,
            gpus_per_server: 4,
            pat_gbps: 0.0,
            ..ClusterSpec::paper_default()
        });
        let job = Job::builder(JobId(0), ModelKind::Vgg16, 16).build();
        let obj = |k: usize| {
            let mut placer = NetPackPlacer::new(NetPackConfig {
                pses_per_job: k,
                ina_policy: InaPolicy::AlwaysOff,
                ..NetPackConfig::default()
            });
            let out = placer.place_batch(&c, &[], std::slice::from_ref(&job));
            assert_eq!(out.placed.len(), 1);
            crate::placer::batch_comm_time_s(&c, &[], &out.placed)
        };
        let one = obj(1);
        let two = obj(2);
        assert!(
            two < one - 1e-9,
            "sharding should cut comm time: 1 PS {one}, 2 PS {two}"
        );
    }

    #[test]
    fn single_server_jobs_stay_local_even_with_sharding() {
        let c = Cluster::new(ClusterSpec {
            racks: 1,
            servers_per_rack: 3,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        });
        let job = Job::builder(JobId(0), ModelKind::AlexNet, 4).build();
        let mut placer = NetPackPlacer::new(NetPackConfig {
            pses_per_job: 3,
            ..NetPackConfig::default()
        });
        let out = placer.place_batch(&c, &[], std::slice::from_ref(&job));
        assert!(out.placed[0].1.is_local());
    }
}
