//! Fig. 6 — simulator validation: flow-level simulator vs the packet-level
//! "testbed".
//!
//! The paper launches identical traces on the testbed and in its simulator
//! and reports a 98% linear correlation between the two normalized JCTs.
//! Our testbed stand-in is the packet-level statistical-INA simulator: we
//! run a set of concurrent-job scenarios through both models and fit the
//! same regression. Each scenario is an independent cell fanned out via
//! [`parallel_sweep`].

use netpack_bench::{emit_table, parallel_sweep};
use netpack_metrics::{linear_fit, TextTable};
use netpack_packetsim::{PacketJobSpec, PacketSim, SwitchConfig};
use netpack_placement::{NetPackPlacer, Placer};
use netpack_topology::{Cluster, ClusterSpec, JobId};
use netpack_workload::{Job, ModelKind, Trace};

/// A scenario: concurrent spanning jobs that all start at t = 0.
struct Scenario {
    name: &'static str,
    jobs: Vec<(ModelKind, usize, u64)>, // (model, gpus, iterations)
}

fn scenarios() -> Vec<Scenario> {
    use ModelKind::*;
    vec![
        Scenario {
            name: "vgg16-pair",
            jobs: vec![(Vgg16, 4, 40), (Vgg16, 4, 40)],
        },
        Scenario {
            name: "mixed-comm",
            jobs: vec![(Vgg19, 4, 30), (Vgg11, 4, 50)],
        },
        Scenario {
            name: "compute-heavy",
            jobs: vec![(ResNet101, 4, 60), (ResNet50, 4, 60)],
        },
        Scenario {
            name: "alexnet-burst",
            jobs: vec![(AlexNet, 4, 400), (AlexNet, 4, 400)],
        },
        Scenario {
            name: "asymmetric",
            jobs: vec![(Vgg16, 6, 40), (ResNet50, 3, 80)],
        },
        Scenario {
            name: "lone-vgg",
            jobs: vec![(Vgg16, 4, 60)],
        },
        Scenario {
            name: "three-way",
            jobs: vec![(Vgg11, 3, 40), (ResNet50, 3, 60), (AlexNet, 3, 200)],
        },
        Scenario {
            name: "big-fanin",
            jobs: vec![(Vgg16, 8, 30)],
        },
    ]
}

/// One scenario through both models: `(fluid JCT, packet JCT)`; the
/// packet side is `None` when the placement came out all-local (nothing
/// for the packet simulator to validate).
fn run_scenario(spec: &ClusterSpec, sc: &Scenario) -> (f64, Option<f64>) {
    // ---- flow-level side: place with NetPack and replay. ----
    let jobs: Vec<Job> = sc
        .jobs
        .iter()
        .enumerate()
        .map(|(i, &(model, gpus, iters))| {
            Job::builder(JobId(i as u64), model, gpus)
                .iterations(iters)
                .build()
        })
        .collect();
    let trace = Trace::from_jobs(jobs.clone());
    let result = netpack_flowsim::Simulation::new(
        Cluster::new(spec.clone()),
        Box::new(NetPackPlacer::default()),
        netpack_flowsim::SimConfig::default(),
    )
    .run(&trace);
    let fluid_jct = result.average_jct_s().expect("scenario finished");

    // ---- packet-level side: same jobs behind one switch. ----
    // fan_in mirrors the flow-level placement's spanning width: every
    // worker streams into the ToR when the job crosses servers.
    let mut placer = NetPackPlacer::default();
    let outcome = placer.place_batch(&Cluster::new(spec.clone()), &[], &jobs);
    let mut sim = PacketSim::new(SwitchConfig {
        pool_slots: {
            let c = SwitchConfig::default();
            (spec.pat_gbps * 1e9 * c.rtt_us * 1e-6 / (c.payload_bytes as f64 * 8.0)) as usize
        },
        ..SwitchConfig::default()
    });
    for (job, placement) in &outcome.placed {
        let fan_in = if placement.is_local() { 0 } else { job.gpus };
        if fan_in == 0 {
            continue;
        }
        sim.add_job(PacketJobSpec {
            id: job.id,
            fan_in,
            gradient_gbits: job.gradient_gbits(),
            compute_time_s: job.compute_time_s(),
            iterations: job.iterations,
            start_s: 0.0,
            target_gbps: None,
        });
    }
    let report = sim.run(600.0);
    let finishes: Vec<f64> = report.per_job.iter().filter_map(|s| s.finish_s).collect();
    let packet_jct =
        (!finishes.is_empty()).then(|| finishes.iter().sum::<f64>() / finishes.len() as f64);
    (fluid_jct, packet_jct)
}

fn main() {
    let spec = ClusterSpec {
        pat_gbps: 200.0,
        ..ClusterSpec::paper_testbed()
    };
    println!("Fig. 6 — normalized JCT: packet-level testbed stand-in vs flow simulator\n");
    let scs = scenarios();
    let results = parallel_sweep(&scs, |sc| run_scenario(&spec, sc));

    let mut fluid = Vec::new();
    let mut packet = Vec::new();
    let mut table = TextTable::new(vec!["scenario", "flow-sim JCT (s)", "packet-sim JCT (s)"]);
    for (sc, &(fluid_jct, packet_jct)) in scs.iter().zip(&results) {
        let Some(packet_jct) = packet_jct else {
            continue; // all-local scenario: nothing to validate
        };
        table.row(vec![
            sc.name.to_string(),
            format!("{fluid_jct:.1}"),
            format!("{packet_jct:.1}"),
        ]);
        fluid.push(fluid_jct);
        packet.push(packet_jct);
    }
    emit_table("fig6", &table);

    // Normalize both to their own means, as the paper's plot does.
    let norm = |v: &[f64]| {
        let m = v.iter().sum::<f64>() / v.len() as f64;
        v.iter().map(|x| x / m).collect::<Vec<_>>()
    };
    let fit = linear_fit(&norm(&packet), &norm(&fluid)).expect("enough scenarios");
    println!(
        "linear fit: fluid = {:.3} x packet + {:.3};  correlation r = {:.3} (r^2 = {:.3})",
        fit.slope,
        fit.intercept,
        fit.r,
        fit.r_squared()
    );
    println!("paper: r = 0.98 between testbed and simulator normalized JCT.");
}
