//! Hand-rolled argument parsing (no external dependencies).

use netpack_workload::{ModelKind, TraceKind};
use std::error::Error;
use std::fmt;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Replay a synthetic trace.
    Simulate(SimulateArgs),
    /// Place one ad-hoc batch.
    Place(PlaceArgs),
    /// Synthesize a trace to CSV.
    Synth(SynthArgs),
    /// Print the model zoo.
    Models,
    /// Print usage.
    Help,
}

/// Arguments of `simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Placer name (`NetPack`, `GB`, `FB`, `LF`, `Optimus`, `Tetris`,
    /// `Comb`, `Random`).
    pub placer: String,
    /// Trace family.
    pub trace: TraceKind,
    /// Number of jobs.
    pub jobs: usize,
    /// Racks in the cluster.
    pub racks: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// GPUs per server.
    pub gpus_per_server: usize,
    /// ToR PAT in Gbps.
    pub pat_gbps: f64,
    /// Oversubscription ratio.
    pub oversub: f64,
    /// Trace seed.
    pub seed: u64,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Replay a trace from a CSV file instead of synthesizing one
    /// (header: `id,model,gpus,iterations,arrival_s,value`).
    pub trace_file: Option<String>,
}

impl Default for SimulateArgs {
    fn default() -> Self {
        SimulateArgs {
            placer: "NetPack".into(),
            trace: TraceKind::Real,
            jobs: 100,
            racks: 4,
            servers_per_rack: 8,
            gpus_per_server: 4,
            pat_gbps: 1000.0,
            oversub: 1.0,
            seed: 1,
            csv: None,
            trace_file: None,
        }
    }
}

/// Arguments of `synth`: generate a trace and write it to CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthArgs {
    /// Trace family.
    pub trace: TraceKind,
    /// Number of jobs.
    pub jobs: usize,
    /// Trace seed.
    pub seed: u64,
    /// Clamp on GPU demand.
    pub max_gpus: usize,
    /// Output CSV path.
    pub out: String,
}

/// Arguments of `place`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceArgs {
    /// `(model, gpus)` of each job in the batch.
    pub jobs: Vec<(ModelKind, usize)>,
    /// Racks in the cluster.
    pub racks: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// GPUs per server.
    pub gpus_per_server: usize,
}

impl Default for PlaceArgs {
    fn default() -> Self {
        PlaceArgs {
            jobs: Vec::new(),
            racks: 1,
            servers_per_rack: 5,
            gpus_per_server: 2,
        }
    }
}

/// A CLI parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

fn parse_model(name: &str) -> Result<ModelKind, ParseError> {
    ModelKind::ALL
        .into_iter()
        .find(|m| m.name() == name.to_ascii_lowercase())
        .ok_or_else(|| err(format!("unknown model '{name}' (try `netpack-cli models`)")))
}

fn parse_trace(name: &str) -> Result<TraceKind, ParseError> {
    match name.to_ascii_lowercase().as_str() {
        "real" => Ok(TraceKind::Real),
        "poisson" => Ok(TraceKind::Poisson),
        "normal" => Ok(TraceKind::Normal),
        other => Err(err(format!(
            "unknown trace '{other}' (real|poisson|normal)"
        ))),
    }
}

fn take_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
) -> Result<&'a str, ParseError> {
    iter.next()
        .ok_or_else(|| err(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ParseError> {
    v.parse()
        .map_err(|_| err(format!("{flag}: cannot parse '{v}'")))
}

/// Parse a full argument list (excluding the program name).
///
/// # Errors
///
/// Returns [`ParseError`] with a user-facing message on any unknown
/// subcommand, unknown flag, missing value, or unparsable number.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Command, ParseError> {
    let mut iter = args.iter().map(AsRef::as_ref);
    let Some(cmd) = iter.next() else {
        return Ok(Command::Help);
    };
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "models" => Ok(Command::Models),
        "simulate" => {
            let mut a = SimulateArgs::default();
            while let Some(flag) = iter.next() {
                match flag {
                    "--placer" => a.placer = take_value(flag, &mut iter)?.to_string(),
                    "--trace" => a.trace = parse_trace(take_value(flag, &mut iter)?)?,
                    "--jobs" => a.jobs = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--racks" => a.racks = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--servers-per-rack" => {
                        a.servers_per_rack = parse_num(flag, take_value(flag, &mut iter)?)?
                    }
                    "--gpus-per-server" => {
                        a.gpus_per_server = parse_num(flag, take_value(flag, &mut iter)?)?
                    }
                    "--pat" => a.pat_gbps = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--oversub" => a.oversub = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--seed" => a.seed = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--csv" => a.csv = Some(take_value(flag, &mut iter)?.to_string()),
                    "--trace-file" => a.trace_file = Some(take_value(flag, &mut iter)?.to_string()),
                    other => return Err(err(format!("unknown flag '{other}' for simulate"))),
                }
            }
            if a.jobs == 0 {
                return Err(err("--jobs must be at least 1"));
            }
            Ok(Command::Simulate(a))
        }
        "synth" => {
            let mut a = SynthArgs {
                trace: TraceKind::Real,
                jobs: 100,
                seed: 1,
                max_gpus: 64,
                out: String::new(),
            };
            while let Some(flag) = iter.next() {
                match flag {
                    "--trace" => a.trace = parse_trace(take_value(flag, &mut iter)?)?,
                    "--jobs" => a.jobs = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--seed" => a.seed = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--max-gpus" => a.max_gpus = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--out" => a.out = take_value(flag, &mut iter)?.to_string(),
                    other => return Err(err(format!("unknown flag '{other}' for synth"))),
                }
            }
            if a.out.is_empty() {
                return Err(err("synth needs --out <path>"));
            }
            if a.jobs == 0 || a.max_gpus == 0 {
                return Err(err("--jobs and --max-gpus must be at least 1"));
            }
            Ok(Command::Synth(a))
        }
        "place" => {
            let mut a = PlaceArgs::default();
            while let Some(flag) = iter.next() {
                match flag {
                    "--job" => {
                        // --job vgg16:4
                        let v = take_value(flag, &mut iter)?;
                        let (model, gpus) = v
                            .split_once(':')
                            .ok_or_else(|| err(format!("--job wants model:gpus, got '{v}'")))?;
                        a.jobs
                            .push((parse_model(model)?, parse_num("--job", gpus)?));
                    }
                    "--racks" => a.racks = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--servers-per-rack" => {
                        a.servers_per_rack = parse_num(flag, take_value(flag, &mut iter)?)?
                    }
                    "--gpus-per-server" => {
                        a.gpus_per_server = parse_num(flag, take_value(flag, &mut iter)?)?
                    }
                    other => return Err(err(format!("unknown flag '{other}' for place"))),
                }
            }
            if a.jobs.is_empty() {
                return Err(err("place needs at least one --job model:gpus"));
            }
            Ok(Command::Place(a))
        }
        other => Err(err(format!("unknown subcommand '{other}' (try help)"))),
    }
}

/// The usage text.
pub fn usage() -> &'static str {
    "netpack-cli — NetPack (ASPLOS'24) job placement toolkit

USAGE:
  netpack-cli simulate [--placer NetPack|GB|FB|LF|Optimus|Tetris|Comb|Random]
                       [--trace real|poisson|normal] [--jobs N]
                       [--trace-file trace.csv]
                       [--racks R] [--servers-per-rack S] [--gpus-per-server G]
                       [--pat GBPS] [--oversub RATIO] [--seed K] [--csv PATH]
  netpack-cli synth    --out trace.csv [--trace real|poisson|normal]
                       [--jobs N] [--seed K] [--max-gpus G]
  netpack-cli place    --job model:gpus [--job model:gpus ...]
                       [--racks R] [--servers-per-rack S] [--gpus-per-server G]
  netpack-cli models
  netpack-cli help
"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse::<&str>(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn simulate_parses_all_flags() {
        let cmd = parse(&[
            "simulate",
            "--placer",
            "GB",
            "--trace",
            "poisson",
            "--jobs",
            "7",
            "--racks",
            "2",
            "--servers-per-rack",
            "3",
            "--gpus-per-server",
            "8",
            "--pat",
            "500",
            "--oversub",
            "4",
            "--seed",
            "9",
            "--csv",
            "/tmp/x.csv",
        ])
        .unwrap();
        let Command::Simulate(a) = cmd else {
            panic!("expected simulate")
        };
        assert_eq!(a.placer, "GB");
        assert_eq!(a.trace, TraceKind::Poisson);
        assert_eq!(a.jobs, 7);
        assert_eq!(a.racks, 2);
        assert_eq!(a.servers_per_rack, 3);
        assert_eq!(a.gpus_per_server, 8);
        assert_eq!(a.pat_gbps, 500.0);
        assert_eq!(a.oversub, 4.0);
        assert_eq!(a.seed, 9);
        assert_eq!(a.csv.as_deref(), Some("/tmp/x.csv"));
    }

    #[test]
    fn place_parses_job_specs() {
        let cmd = parse(&["place", "--job", "vgg16:4", "--job", "resnet50:2"]).unwrap();
        let Command::Place(a) = cmd else {
            panic!("expected place")
        };
        assert_eq!(
            a.jobs,
            vec![(ModelKind::Vgg16, 4), (ModelKind::ResNet50, 2)]
        );
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(parse(&["simulate", "--jobs"]).is_err());
        assert!(parse(&["simulate", "--jobs", "zero"]).is_err());
        assert!(parse(&["simulate", "--wat"]).is_err());
        assert!(parse(&["place"]).is_err());
        assert!(parse(&["place", "--job", "vgg16x4"]).is_err());
        assert!(parse(&["place", "--job", "nomodel:4"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
    }

    #[test]
    fn zero_jobs_rejected() {
        assert!(parse(&["simulate", "--jobs", "0"]).is_err());
    }

    #[test]
    fn models_and_case_insensitive_names() {
        assert_eq!(parse(&["models"]).unwrap(), Command::Models);
        assert_eq!(parse_model("VGG16").unwrap(), ModelKind::Vgg16);
        assert_eq!(parse_trace("REAL").unwrap(), TraceKind::Real);
    }
}
