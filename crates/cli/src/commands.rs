//! Command execution.

use crate::args::{usage, Command, PlaceArgs, SimulateArgs};
use netpack_flowsim::{SimConfig, Simulation};
use netpack_metrics::TextTable;
use netpack_model::Placement;
use netpack_placement::{placer_by_name, NetPackPlacer, Placer};
use netpack_topology::{Cluster, ClusterSpec, JobId};
use netpack_waterfill::{estimate, PlacedJob};
use netpack_workload::{Job, ModelKind, TraceSpec};

/// Execute a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns an error string suitable for printing to stderr (unknown
/// placer, invalid cluster dimensions, or CSV I/O failure).
pub fn run(command: Command, out: &mut impl std::io::Write) -> Result<(), String> {
    match command {
        Command::Help => {
            writeln!(out, "{}", usage()).map_err(|e| e.to_string())?;
            Ok(())
        }
        Command::Models => {
            let mut table = TextTable::new(vec![
                "model",
                "params (M)",
                "gradient (Gbit)",
                "compute (s/iter)",
                "comm intensity (Gbps)",
            ]);
            for m in ModelKind::ALL {
                table.row(vec![
                    m.name().to_string(),
                    format!("{:.1}", m.params_millions()),
                    format!("{:.2}", m.gradient_gbits()),
                    format!("{:.3}", m.compute_time_s()),
                    format!("{:.1}", m.comm_intensity()),
                ]);
            }
            writeln!(out, "{table}").map_err(|e| e.to_string())?;
            Ok(())
        }
        Command::Simulate(args) => simulate(args, out),
        Command::Place(args) => place(args, out),
        Command::Synth(args) => {
            let trace = TraceSpec::new(args.trace, args.jobs)
                .seed(args.seed)
                .max_gpus(args.max_gpus)
                .generate();
            trace.write_csv(&args.out).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "wrote {} jobs ({} total GPUs demanded) to {}",
                trace.jobs().len(),
                trace.total_gpu_demand(),
                args.out
            )
            .map_err(|e| e.to_string())?;
            Ok(())
        }
    }
}

fn cluster(
    racks: usize,
    servers_per_rack: usize,
    gpus_per_server: usize,
    pat_gbps: f64,
    oversub: f64,
) -> Result<Cluster, String> {
    Cluster::try_new(ClusterSpec {
        racks,
        servers_per_rack,
        gpus_per_server,
        pat_gbps,
        oversubscription: oversub,
        ..ClusterSpec::paper_default()
    })
    .map_err(|e| e.to_string())
}

fn simulate(args: SimulateArgs, out: &mut impl std::io::Write) -> Result<(), String> {
    let cluster = cluster(
        args.racks,
        args.servers_per_rack,
        args.gpus_per_server,
        args.pat_gbps,
        args.oversub,
    )?;
    let placer =
        placer_by_name(&args.placer).ok_or_else(|| format!("unknown placer '{}'", args.placer))?;
    let trace = match &args.trace_file {
        Some(path) => netpack_workload::Trace::read_csv(path).map_err(|e| e.to_string())?,
        None => TraceSpec::new(args.trace, args.jobs)
            .seed(args.seed)
            .max_gpus((cluster.total_gpus() / 2).clamp(1, 64))
            .duration_scale(0.3)
            .generate(),
    };
    let result = Simulation::new(cluster, placer, SimConfig::default()).run(&trace);
    let mut table = TextTable::new(vec!["metric", "value"]);
    table.row(vec!["placer".into(), args.placer.clone()]);
    table.row(vec!["trace".into(), args.trace.label().into()]);
    table.row(vec![
        "jobs finished".into(),
        result.outcomes.len().to_string(),
    ]);
    table.row(vec![
        "jobs unfinished".into(),
        result.unfinished.len().to_string(),
    ]);
    if let Some(jct) = result.average_jct_s() {
        table.row(vec!["avg JCT (s)".into(), format!("{jct:.1}")]);
    }
    if let Some(de) = result.distribution_efficiency() {
        table.row(vec!["distribution efficiency".into(), format!("{de:.3}")]);
    }
    table.row(vec![
        "makespan (s)".into(),
        format!("{:.1}", result.makespan_s),
    ]);
    writeln!(out, "{table}").map_err(|e| e.to_string())?;
    if let Some(path) = &args.csv {
        let mut csv = TextTable::new(vec![
            "job",
            "gpus",
            "arrival_s",
            "start_s",
            "finish_s",
            "jct_s",
        ]);
        for o in &result.outcomes {
            csv.row(vec![
                o.id.to_string(),
                o.gpus.to_string(),
                format!("{:.3}", o.arrival_s),
                format!("{:.3}", o.start_s),
                format!("{:.3}", o.finish_s),
                format!("{:.3}", o.jct_s()),
            ]);
        }
        csv.write_csv(path).map_err(|e| e.to_string())?;
        writeln!(out, "per-job records written to {path}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn place(args: PlaceArgs, out: &mut impl std::io::Write) -> Result<(), String> {
    let cluster = cluster(
        args.racks,
        args.servers_per_rack,
        args.gpus_per_server,
        1000.0,
        1.0,
    )?;
    let batch: Vec<Job> = args
        .jobs
        .iter()
        .enumerate()
        .map(|(i, &(model, gpus))| Job::builder(JobId(i as u64), model, gpus).build())
        .collect();
    let mut placer = NetPackPlacer::default();
    let outcome = placer.place_batch(&cluster, &[], &batch);
    let mut table = TextTable::new(vec!["job", "model", "gpus", "workers", "ps", "ina"]);
    for (job, placement) in &outcome.placed {
        table.row(vec![
            job.id.to_string(),
            job.model.to_string(),
            job.gpus.to_string(),
            placement
                .workers()
                .iter()
                .map(|(s, w)| format!("{s}x{w}"))
                .collect::<Vec<_>>()
                .join(","),
            placement
                .ps()
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            describe_ina(placement),
        ]);
    }
    writeln!(out, "{table}").map_err(|e| e.to_string())?;
    for job in &outcome.deferred {
        writeln!(out, "deferred: {} ({} GPUs do not fit)", job.id, job.gpus)
            .map_err(|e| e.to_string())?;
    }
    // Steady-state rates for the placed set.
    let placed: Vec<PlacedJob> = outcome
        .placed
        .iter()
        .map(|(j, p)| PlacedJob::new(j.id, &cluster, p))
        .collect();
    let state = estimate(&cluster, &placed);
    for (job, _) in &outcome.placed {
        let rate = state.job_rate_gbps(job.id).unwrap_or(0.0);
        if rate.is_infinite() {
            writeln!(out, "{}: local, no network traffic", job.id).map_err(|e| e.to_string())?;
        } else {
            let comm = state
                .comm_time_s(job.id, job.gradient_gbits())
                .unwrap_or(f64::INFINITY);
            writeln!(
                out,
                "{}: {rate:.1} Gbps per worker, {comm:.3} s communication per iteration",
                job.id
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn describe_ina(p: &Placement) -> String {
    if p.is_local() {
        "local".into()
    } else if p.ina_enabled() {
        "on".into()
    } else {
        "off".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;

    fn run_str(argv: &[&str]) -> Result<String, String> {
        let cmd = args::parse(argv).map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        run(cmd, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn models_lists_all_six() {
        let out = run_str(&["models"]).unwrap();
        for m in ModelKind::ALL {
            assert!(out.contains(m.name()), "missing {m}");
        }
    }

    #[test]
    fn simulate_small_trace_end_to_end() {
        let out = run_str(&[
            "simulate",
            "--jobs",
            "10",
            "--racks",
            "1",
            "--servers-per-rack",
            "4",
            "--placer",
            "GB",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("avg JCT"));
        assert!(out.contains("jobs finished"));
    }

    #[test]
    fn simulate_writes_csv() {
        let dir = std::env::temp_dir().join("netpack-cli-test");
        let path = dir.join("jobs.csv");
        let out = run_str(&[
            "simulate",
            "--jobs",
            "5",
            "--racks",
            "1",
            "--servers-per-rack",
            "3",
            "--csv",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("written to"));
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("job,gpus,arrival_s"));
        assert_eq!(csv.lines().count(), 6);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn place_prints_decisions_and_rates() {
        let out = run_str(&["place", "--job", "vgg16:4", "--job", "alexnet:2"]).unwrap();
        assert!(out.contains("vgg16"));
        assert!(out.contains("Gbps per worker") || out.contains("local"));
    }

    #[test]
    fn unknown_placer_is_an_error() {
        assert!(run_str(&["simulate", "--placer", "nope"]).is_err());
    }

    #[test]
    fn invalid_cluster_is_an_error() {
        assert!(run_str(&["simulate", "--racks", "0"]).is_err());
    }
}

#[cfg(test)]
mod synth_tests {
    use super::*;
    use crate::args;

    fn run_str(argv: &[&str]) -> Result<String, String> {
        let cmd = args::parse(argv).map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        run(cmd, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn synth_then_replay_round_trips() {
        let dir = std::env::temp_dir().join("netpack-cli-synth");
        let path = dir.join("trace.csv");
        let p = path.to_str().unwrap();
        let out = run_str(&[
            "synth",
            "--jobs",
            "8",
            "--seed",
            "5",
            "--max-gpus",
            "4",
            "--out",
            p,
        ])
        .unwrap();
        assert!(out.contains("wrote 8 jobs"));
        let out = run_str(&[
            "simulate",
            "--trace-file",
            p,
            "--racks",
            "1",
            "--servers-per-rack",
            "4",
        ])
        .unwrap();
        assert!(out.contains("jobs finished            8"), "{out}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn synth_requires_out_path() {
        assert!(args::parse(&["synth", "--jobs", "5"]).is_err());
    }

    #[test]
    fn missing_trace_file_is_an_error() {
        assert!(run_str(&["simulate", "--trace-file", "/nonexistent/x.csv"]).is_err());
    }
}
