//! One workload, one process:
//! `netpack-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//! prints every metric by name with its unit and ends with the result
//! line. `--compare FIRST SECOND` and `--spread ROWS` (with `--manifest
//! BENCHMARK.json`) are the second halves of `run.sh --selfcheck` and
//! `run.sh --spread`.

use netpack_benchmark::report::{self, Metric};
use netpack_benchmark::workload::Tally;
use netpack_benchmark::{probes, sys, trace, workload};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<(String, String)>,
    spread: Option<String>,
    manifest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        compare: None,
        spread: None,
        manifest: "BENCHMARK.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--manifest" => args.manifest = value()?,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--spread" => args.spread = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    sys::now_ns();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("netpack-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let verdict = if let Some((first, second)) = &args.compare {
        Some(report::compare(&args.manifest, first, second))
    } else {
        args.spread
            .as_ref()
            .map(|rows| report::spread(&args.manifest, rows))
    };
    if let Some(verdict) = verdict {
        return match verdict {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => {
                eprintln!("{n} metric(s) outside their bound");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("netpack-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(mut w) = netpack_benchmark::workload(&args.workload, args.seed) else {
        eprintln!(
            "netpack-benchmark: --workload must be one of {:?}",
            report::WORKLOADS
        );
        return ExitCode::from(2);
    };

    let commit = std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {} commit {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        commit
    );
    let load = sys::loadavg();
    if load > 1.5 {
        println!("WARNING load average {load:.2} > 1.5 at start: timings will be noisy");
    }

    let (tally, metrics): (Tally, Result<Vec<Metric>, String>) = if args.trace {
        let mut tally = Tally::default();
        let (values, spans) = probes::run(w.as_mut(), args.seed, &mut tally);
        let path =
            std::path::Path::new("benchmark/out").join(format!("trace-{}.json", args.workload));
        match trace::write_json(&path, &spans) {
            Ok(()) => println!("{} spans -> {}", spans.len(), path.display()),
            Err(e) => tally
                .failures
                .push(format!("writing {}: {e}", path.display())),
        }
        (tally, report::metrics(&report::PER_LAYER, &values))
    } else {
        let e = workload::measure(w.as_mut(), args.seconds);
        println!(
            "{} repetitions in {:.2} s timed, {:.2} s in all; host factor {:.4} (reference kernel / nominal), uncorrected jobs_per_s {:.3}",
            e.repetitions,
            e.timed_s,
            sys::now_s(),
            e.host_factor,
            e.raw_jobs_per_s
        );
        let values = BTreeMap::from([
            ("jobs_per_s", e.jobs_per_s),
            ("latency_p50_ms", e.latency_p50_ms),
            ("cpu_s_per_kjob", e.cpu_s_per_kjob),
            ("comm_overhead_ratio", e.comm_overhead_ratio),
            ("peak_rss_mb", e.peak_rss_mb),
            ("setup_s", e.setup_s),
        ]);
        (e.tally, report::metrics(&report::END_TO_END, &values))
    };

    for (key, value) in &tally.notes {
        println!("  {key} = {value}");
    }
    let mut failures = tally.failures;
    let metrics = metrics.unwrap_or_else(|e| {
        failures.push(e);
        Vec::new()
    });
    report::print_table(&metrics);
    for failure in &failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!(
        "{}",
        report::result_line(
            failures.is_empty(),
            tally.attempted.max(1),
            tally.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
