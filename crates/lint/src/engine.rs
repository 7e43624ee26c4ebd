//! File analysis and workspace walking: test-region detection,
//! suppression pragmas, and the report. Any finding fails the run.

use crate::lexer::{self, Line};
use crate::registry;
use crate::rules::{self, Finding, FileContext, RULES};
use crate::scopes;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// A parsed `// netpack-lint: allow(<rule>): <reason>` pragma.
#[derive(Debug, Clone)]
struct Pragma {
    rule: String,
    /// `Err(message)` when the pragma is malformed (missing reason,
    /// unknown rule) — reported as a finding of rule `pragma`.
    problem: Option<String>,
}

/// Parse the pragma in a comment, if any. Doc comments (`///`, `//!`)
/// never carry pragmas — they *describe* the syntax without invoking it.
fn parse_pragma(comment: &str) -> Option<Pragma> {
    if comment.starts_with('/') || comment.starts_with('!') {
        return None;
    }
    let rest = comment.split("netpack-lint:").nth(1)?.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Some(Pragma {
            rule: String::new(),
            problem: Some("expected `allow(<rule>)` after `netpack-lint:`".to_string()),
        });
    };
    let Some(close) = rest.find(')') else {
        return Some(Pragma {
            rule: String::new(),
            problem: Some("unclosed `allow(`".to_string()),
        });
    };
    let rule = rest[..close].trim().to_string();
    if !RULES.contains(&rule.as_str()) {
        return Some(Pragma {
            problem: Some(format!("unknown rule `{rule}`")),
            rule,
        });
    }
    let reason = rest[close + 1..]
        .trim_start()
        .trim_start_matches([':', '-', '—'])
        .trim();
    if reason.is_empty() {
        return Some(Pragma {
            problem: Some(format!(
                "suppression of {rule} needs a reason: `// netpack-lint: allow({rule}): <why>`"
            )),
            rule,
        });
    }
    Some(Pragma { rule, problem: None })
}

/// Mark every line covered by a `#[cfg(test)]` or `#[test]` item.
///
/// From each attribute, the item's extent is the first balanced `{…}`
/// block (or a plain `;` for declarations) that follows — matched on
/// blanked code, so braces in strings or comments can't derail it.
fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    for start in 0..lines.len() {
        let code = &lines[start].code;
        let attr = ["#[cfg(test)]", "#[cfg(all(test", "#[test]"]
            .iter()
            .filter_map(|a| code.find(a).map(|p| p + a.len()))
            .min();
        let Some(after_attr) = attr else { continue };
        let mut depth = 0i32;
        let mut entered = false;
        'scan: for idx in start..lines.len() {
            let code = &lines[idx].code;
            let from = if idx == start { after_attr } else { 0 };
            for c in code[from.min(code.len())..].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth -= 1;
                        if entered && depth == 0 {
                            for m in &mut mask[start..=idx] {
                                *m = true;
                            }
                            break 'scan;
                        }
                    }
                    ';' if !entered => {
                        for m in &mut mask[start..=idx] {
                            *m = true;
                        }
                        break 'scan;
                    }
                    _ => {}
                }
            }
            if idx + 1 == lines.len() {
                // Unterminated item (fixture snippets): mark to EOF.
                for m in &mut mask[start..] {
                    *m = true;
                }
            }
        }
    }
    mask
}

/// Crate name for a workspace-relative path (`crates/<name>/src/…`).
fn crate_of(rel_path: &str) -> &str {
    let rel = rel_path.trim_start_matches("./");
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            if parts.next() == Some("src") {
                return name;
            }
        }
    }
    ""
}

/// Outcome of analyzing one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived pragma suppression.
    pub findings: Vec<Finding>,
    /// Number of findings silenced by a valid pragma.
    pub suppressed: usize,
    /// `NETPACK_*` reads in this file as `(line, name)` — fed into the
    /// workspace-level registry cross-check.
    pub env_reads: Vec<(usize, String)>,
}

/// Analyze one file's source. `rel_path` is workspace-relative and drives
/// crate attribution (`crates/<name>/src/…`) and path-based exemptions.
pub fn analyze_source(rel_path: &str, source: &str) -> FileReport {
    let lines = lexer::scan(source);
    let is_test = test_mask(&lines);
    let scope_tree = scopes::parse(&lines);
    let ctx = FileContext {
        path: rel_path,
        crate_name: crate_of(rel_path),
        lines: &lines,
        is_test: &is_test,
        scopes: &scope_tree,
    };
    let raw = rules::check_file(&ctx);

    // Valid pragmas allow (line, rule); a comment-only pragma line also
    // covers the next line. Malformed pragmas become findings themselves,
    // and so does a valid pragma that ends up suppressing nothing (P1).
    let mut allowed: BTreeMap<(usize, String), usize> = BTreeMap::new();
    let mut valid_pragmas: Vec<(usize, String, bool)> = Vec::new(); // (line, rule, used)
    let mut report = FileReport::default();
    for (idx, line) in lines.iter().enumerate() {
        let Some(pragma) = parse_pragma(&line.comment) else {
            continue;
        };
        if let Some(problem) = pragma.problem {
            report.findings.push(Finding {
                rule: "pragma",
                path: rel_path.to_string(),
                line: idx + 1,
                message: problem,
                func: None,
            });
            continue;
        }
        let pragma_idx = valid_pragmas.len();
        valid_pragmas.push((idx + 1, pragma.rule.clone(), false));
        allowed.insert((idx + 1, pragma.rule.clone()), pragma_idx);
        if line.is_comment_only() {
            allowed.insert((idx + 2, pragma.rule), pragma_idx);
        }
    }
    for f in raw {
        if let Some(&pragma_idx) = allowed.get(&(f.line, f.rule.to_string())) {
            report.suppressed += 1;
            valid_pragmas[pragma_idx].2 = true;
        } else {
            report.findings.push(f);
        }
    }
    // P1 — stale pragmas. Reported after suppression so P1 itself can
    // never be suppressed: the suppression set only shrinks.
    for (line, rule, used) in valid_pragmas {
        if !used {
            report.findings.push(Finding {
                rule: "P1",
                path: rel_path.to_string(),
                line,
                message: format!(
                    "stale pragma: `allow({rule})` suppresses nothing — the hazard is gone, delete the excuse"
                ),
                func: scope_tree.enclosing_fn(line).map(|s| s.name.clone()),
            });
        }
    }
    report.findings.sort_by_key(|f| f.line);
    report.env_reads = registry::reads_in(&lines, &is_test);
    report
}

/// Recursively collect `.rs` files under `root`, skipping build output,
/// vendored code, test trees (test code is exempt from every rule, and
/// the lint's own fixtures contain violations on purpose), and the
/// stand-alone `benchmark/` driver (a package outside this workspace whose
/// job is to read the clock).
fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    const SKIP_DIRS: [&str; 6] = ["target", "vendor", ".git", "tests", "benchmark", ".github"];
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// A full workspace run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Surviving findings across all files, in path order.
    pub findings: Vec<Finding>,
    /// Total pragma-suppressed findings.
    pub suppressed: usize,
    /// Files analyzed.
    pub files: usize,
}

/// Analyze every eligible file under `root`.
pub fn run_root(root: &Path) -> io::Result<RunReport> {
    let mut report = RunReport::default();
    let mut reads: Vec<(String, usize, String)> = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        let file = analyze_source(&rel, &source);
        report.findings.extend(file.findings);
        report.suppressed += file.suppressed;
        report.files += 1;
        for (idx, name) in file.env_reads {
            reads.push((rel.clone(), idx + 1, name));
        }
    }
    // The registry cross-check (dead entries, README table) only makes
    // sense at the real workspace root; fixture trees have no README.md.
    if root.join("README.md").is_file() {
        report.findings.extend(registry::cross_check(root, &reads));
    }
    Ok(report)
}

/// Output format for [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable lines (the default).
    Text,
    /// One machine-readable JSON object on stdout (`--format=json`);
    /// CI uploads it as the findings artifact.
    Json,
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the findings as one JSON object.
fn render_json(report: &RunReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"files\": {},\n  \"suppressed\": {},\n",
        report.files, report.suppressed
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let func = match &f.func {
            Some(name) => format!("\"{}\"", json_escape(name)),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"func\": {}, \"message\": \"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            func,
            json_escape(&f.message)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

/// Entry point shared by `main` and the fixture tests: lint `root`, print
/// the findings to stdout, and return the process exit code (0 = clean,
/// 1 = findings; an I/O error is raised as `Err`, which `main` maps to 2).
pub fn run(root: &Path, format: OutputFormat) -> io::Result<i32> {
    let report = run_root(root)?;
    if format == OutputFormat::Json {
        println!("{}", render_json(&report));
        return Ok(i32::from(!report.findings.is_empty()));
    }
    if report.findings.is_empty() {
        println!(
            "netpack-lint: clean ({} files, {} suppressed)",
            report.files, report.suppressed
        );
        return Ok(0);
    }
    for f in &report.findings {
        let func = f.func.as_deref().map(|n| format!(" (in fn {n})")).unwrap_or_default();
        println!("{}:{}: [{}] {}{func}", f.path, f.line, f.rule, f.message);
    }
    println!(
        "netpack-lint: {} finding(s) — fix them, or suppress one with \
         `// netpack-lint: allow(<rule>): <reason>`",
        report.findings.len()
    );
    Ok(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\nfn after() {}\n";
        let lines = lexer::scan(src);
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn test_mask_covers_test_fns() {
        let src = "#[test]\nfn t() {\n  body();\n}\nfn real() {}\n";
        let mask = test_mask(&lexer::scan(src));
        assert_eq!(mask, vec![true, true, true, true, false]);
    }

    #[test]
    fn crate_attribution_follows_path() {
        assert_eq!(crate_of("crates/waterfill/src/state.rs"), "waterfill");
        assert_eq!(crate_of("crates/lint/src/lexer.rs"), "lint");
        assert_eq!(crate_of("src/lib.rs"), "");
        assert_eq!(crate_of("examples/demo.rs"), "");
    }

    #[test]
    fn pragma_requires_known_rule_and_reason() {
        assert!(parse_pragma(" just a comment").is_none());
        assert!(
            parse_pragma("/ doc: use `// netpack-lint: allow(D1): why`").is_none(),
            "doc comments describe the syntax, they don't invoke it"
        );
        let ok = parse_pragma(" netpack-lint: allow(D1): keyed scratch map").unwrap();
        assert!(ok.problem.is_none());
        assert_eq!(ok.rule, "D1");
        let no_reason = parse_pragma(" netpack-lint: allow(D1)").unwrap();
        assert!(no_reason.problem.is_some());
        let bad_rule = parse_pragma(" netpack-lint: allow(D9): whatever").unwrap();
        assert!(bad_rule.problem.is_some());
    }

    #[test]
    fn suppression_applies_to_same_and_next_line() {
        let src = "\
use std::time::Instant;
fn f() {
    let a = Instant::now(); // netpack-lint: allow(D2): fixture proves trailing form
    // netpack-lint: allow(D2): fixture proves standalone form
    let b = Instant::now();
    let c = Instant::now();
}
";
        let report = analyze_source("crates/model/src/x.rs", src);
        assert_eq!(report.suppressed, 2);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 6);
    }
}
