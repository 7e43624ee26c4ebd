//! The declared registry of `NETPACK_*` environment variables (rule M1).
//!
//! Every env-gated behavior in this workspace — the knobs and the output
//! redirects; no variable selects an implementation — is part of the
//! repo's reproducibility contract: README.md documents it. The contract
//! is *declared* here and cross-checked mechanically:
//!
//! * an `env::var("NETPACK_…")` read anywhere in workspace code whose
//!   name is not registered → M1 at the read site;
//! * a `NETPACK_*` literal in a library crate, registered or not → M1
//!   (the per-file half, in [`crate::rules`]): only binaries read the
//!   environment;
//! * a registered variable no source file reads → M1 (dead entry);
//! * a registered variable missing from the README env table → M1;
//! * a `NETPACK_*` name in README that is not registered → M1.
//!
//! The oracles of the simulators and placers (`run_reference`,
//! `placement::reference`) are deliberately *not* here: no variable
//! selects them, tests call them.
//!
//! The lint crate itself is exempt from read collection — this file
//! *names* every variable without reading any.

use crate::lexer::Line;
use crate::rules::Finding;
use std::path::Path;

/// One registered environment variable.
#[derive(Debug, Clone, Copy)]
pub struct EnvVar {
    /// The full variable name.
    pub name: &'static str,
    /// One-line purpose, shown by `--explain M1`.
    pub desc: &'static str,
}

/// Every `NETPACK_*` variable the workspace may read. Keep sorted by
/// name; M1 cross-checks this table against the code and README.md on
/// every lint run.
pub const REGISTRY: &[EnvVar] = &[
    EnvVar {
        name: "NETPACK_CSV_DIR",
        desc: "also write each printed table as CSV under this directory",
    },
    EnvVar {
        name: "NETPACK_PERF",
        desc: "print merged perf counters after a sweep or service replay",
    },
    EnvVar {
        name: "NETPACK_QUICK",
        desc: "shrunken smoke runs (smaller clusters/traces)",
    },
    EnvVar {
        name: "NETPACK_REPEATS",
        desc: "trace seeds per data point",
    },
    EnvVar {
        name: "NETPACK_THREADS",
        desc: "worker threads for the figure sweeps",
    },
];

/// Look a variable up by exact name.
pub fn find(name: &str) -> Option<&'static EnvVar> {
    REGISTRY.iter().find(|v| v.name == name)
}

/// Extract `NETPACK_*` tokens from a text fragment. A token is a maximal
/// `[A-Z0-9_]+` run starting with `NETPACK_`; runs ending in `_` are
/// prefix mentions (`NETPACK_SERVICE_*` prose), not variable names.
pub fn env_tokens(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    let is_tok = |b: u8| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_';
    while i < bytes.len() {
        if !is_tok(bytes[i]) || (i > 0 && is_tok(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_tok(bytes[i]) {
            i += 1;
        }
        let tok = &text[start..i];
        if tok.starts_with("NETPACK_") && tok.len() > "NETPACK_".len() && !tok.ends_with('_') {
            out.push((start, tok.to_string()));
        }
    }
    out
}

/// `NETPACK_*` variable reads in one file's code literals (non-test
/// lines). Returns `(line_index_0_based, name)` pairs.
pub fn reads_in(lines: &[Line], is_test: &[bool]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if is_test[idx] || line.literal.is_empty() {
            continue;
        }
        for (_, name) in env_tokens(&line.literal) {
            out.push((idx, name));
        }
    }
    out
}

/// Workspace-level cross-checks: registry vs collected reads and
/// README.md. Only meaningful at the real workspace root — the engine
/// calls this when `README.md` exists under `root`.
pub fn cross_check(root: &Path, reads: &[(String, usize, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let m1 = |path: &str, line: usize, message: String| Finding {
        rule: "M1",
        path: path.to_string(),
        line,
        message,
        func: None,
    };

    // Dead registry entries: no non-test code read anywhere.
    for var in REGISTRY {
        if !reads.iter().any(|(_, _, name)| name == var.name) {
            findings.push(m1(
                "crates/lint/src/registry.rs",
                1,
                format!(
                    "registry entry `{}` is dead — no workspace code reads it; delete the entry or the feature it described",
                    var.name
                ),
            ));
        }
    }

    // README coverage, both directions.
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let mut readme_names: Vec<(usize, String)> = Vec::new();
    for (n, line) in readme.lines().enumerate() {
        for (_, name) in env_tokens(line) {
            readme_names.push((n + 1, name));
        }
    }
    for var in REGISTRY {
        if !readme_names.iter().any(|(_, name)| name == var.name) {
            findings.push(m1(
                "README.md",
                1,
                format!(
                    "registered variable `{}` is missing from the README environment table",
                    var.name
                ),
            ));
        }
    }
    let mut reported_unknown: Vec<&str> = Vec::new();
    for (line, name) in &readme_names {
        if find(name).is_none() && !reported_unknown.contains(&name.as_str()) {
            reported_unknown.push(name);
            findings.push(m1(
                "README.md",
                *line,
                format!("`{name}` is documented but not in the mode-gate registry — register it or drop the doc"),
            ));
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in REGISTRY.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "registry must stay sorted: {} >= {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn tokens_require_full_names() {
        let toks = env_tokens("reads NETPACK_QUICK and the NETPACK_SERVICE_ prefix, not NETPACK_");
        let names: Vec<&str> = toks.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["NETPACK_QUICK"]);
    }

    #[test]
    fn reads_skip_comments_and_tests() {
        let src = "\
// NETPACK_COMMENTED is prose, not a read
fn f() { let v = std::env::var(\"NETPACK_PERF\"); }
#[cfg(test)]
mod tests {
    fn t() { std::env::set_var(\"NETPACK_QUICK\", \"1\"); }
}
";
        let lines = crate::lexer::scan(src);
        let is_test = [false, false, true, true, true, true, false];
        let reads = reads_in(&lines, &is_test[..lines.len()]);
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].1, "NETPACK_PERF");
    }
}
