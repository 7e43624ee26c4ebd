//! CLI for `netpack-lint`. Run from the workspace root:
//!
//! ```text
//! cargo run -p netpack-lint                      # lint, exit 1 on any finding
//! cargo run -p netpack-lint -- --format=json     # machine-readable findings
//! cargo run -p netpack-lint -- --explain C1      # long-form rule rationale
//! cargo run -p netpack-lint -- --root DIR
//! ```

use netpack_lint::engine::OutputFormat;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = OutputFormat::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--format=json" => format = OutputFormat::Json,
            "--format=text" => format = OutputFormat::Text,
            "--format" => match args.next().as_deref() {
                Some("json") => format = OutputFormat::Json,
                Some("text") => format = OutputFormat::Text,
                _ => return usage("--format needs `json` or `text`"),
            },
            "--explain" => {
                return match args.next() {
                    Some(rule) => explain(&rule),
                    None => usage("--explain needs a rule id (try D1, C1, M1, P1)"),
                };
            }
            "--help" | "-h" => {
                println!(
                    "netpack-lint: determinism, concurrency & mode-gate checks\n\
                     options: [--root DIR] [--format=json|text] [--explain RULE]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    match netpack_lint::run(&root, format) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("netpack-lint: i/o error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Print the long-form rationale for one rule; exit 2 on unknown ids so
/// scripts can distinguish "explained" from "no such rule".
fn explain(rule: &str) -> ExitCode {
    match netpack_lint::rules::explain(rule) {
        Some(text) => {
            println!("{text}");
            if rule == "M1" {
                println!("\nRegistered variables:");
                for var in netpack_lint::registry::REGISTRY {
                    println!("  {:<34} {}", var.name, var.desc);
                }
            }
            ExitCode::SUCCESS
        }
        None => usage(&format!(
            "unknown rule `{rule}` — rules are {}",
            netpack_lint::RULES.join(", ")
        )),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("netpack-lint: {problem} (see --help)");
    ExitCode::from(2)
}
