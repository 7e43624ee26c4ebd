//! The NetPack lint rules.
//!
//! Every rule operates on blanked code lines (see [`crate::lexer`]) of a
//! single file plus per-file context: crate name, test-line mask, and —
//! since v2 — the block/item scope tree from [`crate::scopes`], which
//! lets the concurrency rules reason about what a parallel closure
//! captures and lets every finding name its enclosing function. Rules
//! are deliberately heuristic: the goal is catching this repo's real
//! determinism hazards with zero dependencies, not a general Rust
//! analyzer. The fixture tests in `tests/` define the contract for each
//! rule.

use crate::lexer::{is_ident_char, Line};
use crate::registry;
use crate::scopes::ScopeTree;

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D1`…`P1`, or `pragma` for a malformed pragma).
    pub rule: &'static str,
    /// Path as given to the engine (workspace-relative in normal runs).
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Name of the enclosing `fn`, when the scope tree resolves one.
    pub func: Option<String>,
}

/// All rule ids, in report order.
pub const RULES: [&str; 9] = ["D1", "D2", "D3", "N1", "E1", "C1", "C2", "M1", "P1"];

/// Long-form rationale per rule, printed by `--explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "D1" => {
            "D1 — hash-order iteration in sim/placement crates.\n\n\
            HashMap/HashSet iteration order changes across runs and Rust\n\
            versions. Any such iteration that reaches simulation results,\n\
            placements, or printed output silently breaks the bit-identity\n\
            contract between fast paths and their scratch references.\n\
            Fix: BTreeMap/BTreeSet, or collect-and-sort before iterating."
        }
        "D2" => {
            "D2 — wall-clock reads outside metrics::perf.\n\n\
            Instant::now / SystemTime in simulation or placement state makes\n\
            replays irreproducible. All timing goes through\n\
            netpack_metrics::Stopwatch, the one sanctioned clock site."
        }
        "D3" => {
            "D3 — unseeded randomness.\n\n\
            thread_rng / from_entropy / rand::random draw from OS entropy,\n\
            so two runs of the same experiment disagree. Every RNG must be\n\
            derived from an explicit seed that the caller controls."
        }
        "N1" => {
            "N1 — float accumulation inside parallel or batched regions.\n\n\
            Float addition is not associative: a += over a parallel fold or\n\
            a batched round loop re-associates the sum and the result\n\
            depends on chunking. The parallel regions left are the figure\n\
            sweeps; the batched ones are packetsim's batch loops. Route\n\
            through exact accumulation (add_cycle-style integer/exact\n\
            paths), or fold after the join: parallel_sweep returns results\n\
            in cell order."
        }
        "E1" => {
            "E1 — unwrap/expect/panic! in library crates.\n\n\
            Library code returns typed errors; aborting is the caller's\n\
            decision. No use is grandfathered. A panic that asserts a proven\n\
            invariant may stay, with the proof in the expect message and an\n\
            allow(E1) pragma."
        }
        "C1" => {
            "C1 — shared mutable state captured by a parallel closure.\n\n\
            The deterministic-parallelism contract (parallel_sweep in the\n\
            figure sweeps, thread::scope, thread::spawn) is that every cell is\n\
            independent: results are merged in cell order, so any cell\n\
            writing state another cell can see makes the merge order\n\
            observable. The rule flags RefCell/Cell-typed bindings and &mut\n\
            borrows/aliases that originate OUTSIDE a parallel region but\n\
            are used inside its closure. Fix: give each cell its own state\n\
            and commit deterministically after the join."
        }
        "C2" => {
            "C2 — unjustified static mut / Ordering::Relaxed.\n\n\
            static mut is a data race waiting to happen (and unsafe, which\n\
            the workspace forbids). Ordering::Relaxed is sometimes correct —\n\
            a sender refcount — but each site must say WHY relaxed ordering\n\
            cannot reach results: every use carries a per-site\n\
            `// netpack-lint: allow(C2): <proof>` pragma. An allowlist that\n\
            must be argued for is the point."
        }
        "M1" => {
            "M1 — the NETPACK_* registry, read only at the edge.\n\n\
            Every env-gated behavior is declared once, in\n\
            crates/lint/src/registry.rs, and cross-checked on every run:\n\
            an env::var read of an unregistered name, a registered name no\n\
            code reads, and a name missing from the README env table are\n\
            all findings.\n\
            Library crates read no environment at all: a NETPACK_* string\n\
            literal in non-test code of an E1 crate is a finding, so\n\
            `cargo test` cannot be steered by a stray variable — binaries\n\
            (crates/bench, crates/cli) parse the environment into typed\n\
            configs."
        }
        "P1" => {
            "P1 — stale suppression pragmas.\n\n\
            An `allow(<rule>)` pragma that no longer suppresses any finding\n\
            is debt pretending to be justification: the hazard it excused\n\
            is gone, but the excuse invites the next one. Stale pragmas are\n\
            findings themselves, so the suppression set can only shrink.\n\
            P1 cannot be suppressed."
        }
        _ => return None,
    })
}

/// Crates whose non-test code must not iterate hash-ordered containers
/// (rule D1): the simulation / placement / reporting pipeline where
/// iteration order reaches results.
pub const D1_CRATES: [&str; 6] = [
    "waterfill",
    "flowsim",
    "packetsim",
    "placement",
    "core",
    "service",
];

/// Library crates where new panics are forbidden (rule E1). `bench` and
/// `cli` are driver/report binaries where aborting on a malformed flag or
/// an unwritable CSV directory is the intended behavior.
pub const E1_CRATES: [&str; 10] = [
    "topology",
    "workload",
    "model",
    "waterfill",
    "placement",
    "core",
    "flowsim",
    "packetsim",
    "metrics",
    "service",
];

/// Per-file inputs shared by all rules.
pub struct FileContext<'a> {
    /// Workspace-relative path (used for crate attribution and exemptions).
    pub path: &'a str,
    /// Crate name derived from the path (`crates/<name>/src/…`), or `""`.
    pub crate_name: &'a str,
    /// Blanked source lines from [`crate::lexer::scan`].
    pub lines: &'a [Line],
    /// `true` for every line inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: &'a [bool],
    /// Block/item structure from [`crate::scopes::parse`].
    pub scopes: &'a ScopeTree,
}

impl FileContext<'_> {
    fn code(&self, idx: usize) -> &str {
        &self.lines[idx].code
    }
}

/// Run every rule over one file. Suppression is applied by the engine
/// afterwards; this returns raw findings.
pub fn check_file(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    d1_hash_iteration(ctx, &mut findings);
    d2_wall_clock(ctx, &mut findings);
    d3_unseeded_randomness(ctx, &mut findings);
    n1_parallel_float_accumulation(ctx, &mut findings);
    e1_panics(ctx, &mut findings);
    c1_captured_mutable_state(ctx, &mut findings);
    c2_relaxed_and_static_mut(ctx, &mut findings);
    m1_env_reads(ctx, &mut findings);
    findings
}

fn finding(ctx: &FileContext<'_>, rule: &'static str, idx: usize, message: String) -> Finding {
    Finding {
        rule,
        path: ctx.path.to_string(),
        line: idx + 1,
        message,
        func: ctx.scopes.enclosing_fn(idx + 1).map(|s| s.name.clone()),
    }
}

/// Does `hay` contain `needle` as a whole identifier (not a substring of a
/// longer identifier)?
fn has_ident(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok =
            start == 0 || !is_ident_char(hay[..start].chars().next_back().unwrap_or(' '));
        let after_ok = end >= hay.len() || !is_ident_char(hay[end..].chars().next().unwrap_or(' '));
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// The identifier ending immediately before byte offset `end` in `s`
/// (e.g. the receiver of a `.iter()` call), skipping one `self.` prefix.
fn ident_before(s: &str, end: usize) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1] as char) {
        start -= 1;
    }
    if start == end {
        return None;
    }
    Some(&s[start..end])
}

/// Names bound to `HashMap`/`HashSet` in this file: `let` bindings,
/// struct fields, and fn params, matched on the blanked code.
fn hash_bound_names(ctx: &FileContext<'_>) -> Vec<String> {
    bound_names(ctx, &["HashMap", "HashSet"])
}

/// Names whose declared type or initializer marks them as floats.
fn float_bound_names(ctx: &FileContext<'_>) -> Vec<String> {
    let mut names = bound_names(ctx, &["f64", "f32"]);
    // `let mut acc = 0.0;` style initializers.
    for line in ctx.lines {
        let code = &line.code;
        if let Some(rest) = code.trim_start().strip_prefix("let ") {
            let rest = rest.trim_start().trim_start_matches("mut ").trim_start();
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() {
                if let Some(eq) = code.find('=') {
                    if looks_like_float_literal(code[eq + 1..].trim()) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

fn looks_like_float_literal(s: &str) -> bool {
    let s = s.trim_end_matches(';').trim();
    let mut chars = s.chars();
    let mut saw_digit = false;
    let mut saw_dot = false;
    for c in chars.by_ref() {
        match c {
            '0'..='9' | '_' => saw_digit = true,
            '.' if saw_digit && !saw_dot => saw_dot = true,
            _ => return false,
        }
    }
    saw_digit && saw_dot
}

/// Collect names declared with any of the marker types: `let x: T<…>`,
/// `let x = T::…`, `field: T<…>`, `param: T<…>`.
fn bound_names(ctx: &FileContext<'_>, markers: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    for line in ctx.lines {
        let code = &line.code;
        if !markers.iter().any(|m| has_ident(code, m)) {
            continue;
        }
        // `let [mut] NAME …` binding on this line.
        if let Some(pos) = code.find("let ") {
            let rest = code[pos + 4..]
                .trim_start()
                .trim_start_matches("mut ")
                .trim_start();
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() {
                names.push(name);
                continue;
            }
        }
        // `NAME: Marker<…>` — struct fields and fn parameters; a line may
        // declare several, so every colon is examined.
        for (colon, _) in code.match_indices(':') {
            if colon + 1 < code.len() && code[colon + 1..].starts_with(':') {
                continue; // path separator `::`
            }
            if colon > 0 && code[..colon].ends_with(':') {
                continue;
            }
            let after = code[colon + 1..].trim_start();
            let after = after
                .trim_start_matches('&')
                .trim_start_matches("mut ")
                .trim_start_matches("std::collections::");
            if markers.iter().any(|m| after.starts_with(m)) {
                if let Some(name) = ident_before(code, colon) {
                    names.push(name.to_string());
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// D1 — hash-order iteration in sim/placement crates.
fn d1_hash_iteration(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !D1_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let hash_names = hash_bound_names(ctx);
    if hash_names.is_empty() {
        return;
    }
    const ITER_METHODS: [&str; 8] = [
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".drain(",
        ".retain(",
    ];
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test[idx] {
            continue;
        }
        let code = &line.code;
        for method in ITER_METHODS {
            let mut from = 0;
            while let Some(pos) = code[from..].find(method) {
                let at = from + pos;
                if let Some(recv) = ident_before(code, at) {
                    if hash_names.iter().any(|n| n == recv) {
                        out.push(finding(
                            ctx,
                            "D1",
                            idx,
                            format!(
                                "iteration over hash-ordered `{recv}` via `{}` — use BTreeMap or an explicit sort",
                                method.trim_end_matches('(')
                            ),
                        ));
                    }
                }
                from = at + method.len();
            }
        }
        // `for pat in [&[mut]] NAME` — direct IntoIterator use.
        if let Some(for_pos) = find_keyword(code, "for") {
            if let Some(in_rel) = find_keyword(&code[for_pos..], "in") {
                let expr = code[for_pos + in_rel + 2..]
                    .trim_start()
                    .trim_start_matches('&')
                    .trim_start_matches("mut ")
                    .trim_start();
                let head: String = expr.chars().take_while(|&c| is_ident_char(c)).collect();
                if hash_names.contains(&head) && !expr[head.len()..].starts_with('.') {
                    out.push(finding(
                        ctx,
                        "D1",
                        idx,
                        format!("`for … in {head}` iterates a hash-ordered container"),
                    ));
                }
            }
        }
    }
}

/// Byte offset of keyword `kw` in `s` with identifier boundaries.
fn find_keyword(s: &str, kw: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = s[from..].find(kw) {
        let start = from + pos;
        let end = start + kw.len();
        let before_ok = start == 0 || !is_ident_char(s[..start].chars().next_back().unwrap_or(' '));
        let after_ok = end >= s.len() || !is_ident_char(s[end..].chars().next().unwrap_or(' '));
        if before_ok && after_ok {
            return Some(start);
        }
        from = end;
    }
    None
}

/// D2 — wall-clock reads outside `metrics::perf`.
fn d2_wall_clock(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if ctx.path.ends_with("crates/metrics/src/perf.rs") || ctx.path == "crates/metrics/src/perf.rs"
    {
        return;
    }
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test[idx] {
            continue;
        }
        let code = &line.code;
        if code.contains("Instant::now") {
            out.push(finding(
                ctx,
                "D2",
                idx,
                "`Instant::now` outside metrics::perf — time via `netpack_metrics::Stopwatch`"
                    .to_string(),
            ));
        }
        if has_ident(code, "SystemTime") {
            out.push(finding(
                ctx,
                "D2",
                idx,
                "`SystemTime` outside metrics::perf — wall-clock reads break replay determinism"
                    .to_string(),
            ));
        }
    }
}

/// D3 — unseeded randomness outside tests.
fn d3_unseeded_randomness(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test[idx] {
            continue;
        }
        let code = &line.code;
        for (pattern, whole_ident) in [
            ("thread_rng", true),
            ("from_entropy", true),
            ("rand::random", false),
        ] {
            let hit = if whole_ident {
                has_ident(code, pattern)
            } else {
                code.contains(pattern)
            };
            if hit {
                out.push(finding(
                    ctx,
                    "D3",
                    idx,
                    format!("`{pattern}` is unseeded randomness — derive every RNG from an explicit seed"),
                ));
            }
        }
    }
}

/// N1 — float accumulation inside parallel or batched-round regions that
/// bypasses exact (`add_cycle`-style) accumulation.
fn n1_parallel_float_accumulation(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let region = n1_regions(ctx);
    if !region.iter().any(|&r| r) {
        return;
    }
    let float_names = float_bound_names(ctx);
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test[idx] || !region[idx] {
            continue;
        }
        let code = &line.code;
        if code.contains("add_cycle") {
            continue;
        }
        if let Some(pos) = code.find("+=") {
            let lhs = code[..pos].trim_end();
            let target = lhs
                .rsplit(|c: char| !is_ident_char(c) && c != '.')
                .next()
                .unwrap_or("");
            let target_last = target.rsplit('.').next().unwrap_or(target);
            let floaty = float_names.iter().any(|n| n == target_last) || has_float_evidence(code);
            if floaty {
                out.push(finding(
                    ctx,
                    "N1",
                    idx,
                    format!(
                        "float `+=` on `{target_last}` in a parallel/batched region — route through exact accumulation (add_cycle)"
                    ),
                ));
            }
        }
        if code.contains(".sum::<f64>()")
            || code.contains(".sum::<f32>()")
            || (code.contains(".sum()") && has_float_evidence(code))
        {
            out.push(finding(
                ctx,
                "N1",
                idx,
                "float `.sum()` in a parallel/batched region re-associates — use exact accumulation"
                    .to_string(),
            ));
        }
    }
}

fn has_float_evidence(code: &str) -> bool {
    has_ident(code, "f64") || has_ident(code, "f32") || contains_float_literal(code)
}

fn contains_float_literal(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'.'
            && i > 0
            && bytes[i - 1].is_ascii_digit()
            && bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit())
        {
            return true;
        }
    }
    false
}

/// Call expressions that hand a closure to concurrent workers. The
/// region of interest spans the call's argument list, which contains the
/// closure body whether or not it is braced. `sweep(` also matches the
/// figure sweeps built on `parallel_sweep`: `sweep`, `roster_sweep`.
const PARALLEL_TRIGGERS: [&str; 8] = [
    "sweep(",
    "sweep_with(",
    ".par_iter(",
    ".into_par_iter(",
    ".par_chunks(",
    "rayon::scope(",
    "thread::scope(",
    "thread::spawn(",
];

/// A parallel region: the argument-list extent of one trigger call,
/// inclusive line span (0-based indices).
struct Region {
    start: usize,
    end: usize,
}

/// Every parallel-trigger region in the file.
fn parallel_regions(ctx: &FileContext<'_>) -> Vec<Region> {
    let mut regions = Vec::new();
    for (idx, line) in ctx.lines.iter().enumerate() {
        for trigger in PARALLEL_TRIGGERS {
            if let Some(pos) = line.code.find(trigger) {
                let open = pos + trigger.len() - 1;
                regions.push(Region {
                    start: idx,
                    end: balanced_end(ctx, idx, open, '(', ')'),
                });
            }
        }
    }
    regions
}

/// Lines inside a parallel closure (see [`PARALLEL_TRIGGERS`]) or, in
/// `packetsim`, inside a `fn …batch…` body.
fn n1_regions(ctx: &FileContext<'_>) -> Vec<bool> {
    let mut region = vec![false; ctx.lines.len()];
    for r in parallel_regions(ctx) {
        for m in &mut region[r.start..=r.end.min(ctx.lines.len() - 1)] {
            *m = true;
        }
    }
    if ctx.crate_name == "packetsim" {
        for (idx, line) in ctx.lines.iter().enumerate() {
            if let Some(pos) = find_keyword(&line.code, "fn") {
                let name: String = line.code[pos + 2..]
                    .trim_start()
                    .chars()
                    .take_while(|&c| is_ident_char(c))
                    .collect();
                if name.contains("batch") {
                    if let Some((l, c)) = next_char_from(ctx, idx, pos, '{') {
                        mark_balanced(ctx, l, c, '{', '}', &mut region);
                    }
                }
            }
        }
    }
    region
}

/// First position of `want` at or after (`line`, `col`), scanning forward.
fn next_char_from(
    ctx: &FileContext<'_>,
    line: usize,
    col: usize,
    want: char,
) -> Option<(usize, usize)> {
    for idx in line..ctx.lines.len() {
        let start = if idx == line { col } else { 0 };
        if let Some(pos) = ctx.code(idx)[start.min(ctx.code(idx).len())..].find(want) {
            return Some((idx, start + pos));
        }
    }
    None
}

/// Mark every line from the `open` delimiter at (`line`, `col`) through
/// its balanced close as in-region.
fn mark_balanced(
    ctx: &FileContext<'_>,
    line: usize,
    col: usize,
    open: char,
    close: char,
    region: &mut [bool],
) {
    let mut depth = 0i32;
    for (idx, in_region) in region.iter_mut().enumerate().skip(line) {
        *in_region = true;
        let code = ctx.code(idx);
        let start = if idx == line { col } else { 0 };
        for c in code[start.min(code.len())..].chars() {
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }
}

/// 0-based index of the line holding the delimiter that balances `open`
/// at (`line`, `col`); the last line when the file ends first.
fn balanced_end(ctx: &FileContext<'_>, line: usize, col: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    for idx in line..ctx.lines.len() {
        let code = ctx.code(idx);
        let start = if idx == line { col } else { 0 };
        for c in code[start.min(code.len())..].chars() {
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    return idx;
                }
            }
        }
    }
    ctx.lines.len().saturating_sub(1)
}

/// All `let` bindings in the file as `(name, line_index)` pairs, with no
/// type filter. Used to decide where a borrowed name originates.
fn let_binding_lines(ctx: &FileContext<'_>) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in ctx.lines.iter().enumerate() {
        let code = &line.code;
        if let Some(pos) = find_keyword(code, "let") {
            let rest = code[pos + 3..]
                .trim_start()
                .trim_start_matches("mut ")
                .trim_start();
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() {
                out.push((name, idx));
            }
        }
    }
    out
}

/// Bindings whose declared type or initializer names one of `markers`,
/// as `(name, line_index)` pairs: `let x: T`, `let x = T::…`, `field: T`,
/// `param: T`.
fn typed_binding_lines(ctx: &FileContext<'_>, markers: &[&str]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in ctx.lines.iter().enumerate() {
        let code = &line.code;
        if !markers.iter().any(|m| has_ident(code, m)) {
            continue;
        }
        if let Some(pos) = find_keyword(code, "let") {
            let rest = code[pos + 3..]
                .trim_start()
                .trim_start_matches("mut ")
                .trim_start();
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() {
                out.push((name, idx));
                continue;
            }
        }
        for (colon, _) in code.match_indices(':') {
            if colon + 1 < code.len() && code[colon + 1..].starts_with(':') {
                continue;
            }
            if colon > 0 && code[..colon].ends_with(':') {
                continue;
            }
            let after = code[colon + 1..]
                .trim_start()
                .trim_start_matches('&')
                .trim_start_matches("mut ")
                .trim_start_matches("std::cell::");
            if markers.iter().any(|m| after.starts_with(m)) {
                if let Some(name) = ident_before(code, colon) {
                    out.push((name.to_string(), idx));
                }
            }
        }
    }
    out
}

/// C1 — shared mutable state originating outside a parallel region but
/// used inside its closure: `RefCell`/`Cell`-typed bindings, and `&mut`
/// borrows of names `let`-bound outside the region.
fn c1_captured_mutable_state(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let regions = parallel_regions(ctx);
    if regions.is_empty() {
        return;
    }
    let cell_bindings = typed_binding_lines(ctx, &["RefCell", "Cell"]);
    let let_bindings = let_binding_lines(ctx);
    for region in &regions {
        let inside = |decl: usize| region.start <= decl && decl <= region.end;
        // Interior-mutable bindings declared outside, touched inside.
        let mut flagged: Vec<&str> = Vec::new();
        for (name, decl) in &cell_bindings {
            if inside(*decl) || flagged.contains(&name.as_str()) {
                continue;
            }
            for idx in region.start..=region.end.min(ctx.lines.len() - 1) {
                if ctx.is_test[idx] || idx == *decl {
                    continue;
                }
                if has_ident(ctx.code(idx), name) {
                    flagged.push(name);
                    out.push(finding(
                        ctx,
                        "C1",
                        idx,
                        format!(
                            "`{name}` is RefCell/Cell state declared outside this parallel region — interior mutation makes the merge order observable; give each cell its own state"
                        ),
                    ));
                    break;
                }
            }
        }
        // `&mut name` borrows of names bound outside the region (and not
        // rebound inside it — per-cell locals are fine).
        let mut mut_flagged: Vec<String> = Vec::new();
        for idx in region.start..=region.end.min(ctx.lines.len() - 1) {
            if ctx.is_test[idx] {
                continue;
            }
            let code = ctx.code(idx);
            let mut from = 0usize;
            while let Some(pos) = code[from..].find("&mut ") {
                let at = from + pos + "&mut ".len();
                let name: String = code[at..]
                    .chars()
                    .take_while(|&c| is_ident_char(c))
                    .collect();
                from = at;
                if name.is_empty() || mut_flagged.contains(&name) {
                    continue;
                }
                let outside_decl = let_bindings
                    .iter()
                    .any(|(n, decl)| n == &name && !inside(*decl));
                let inside_decl = let_bindings
                    .iter()
                    .any(|(n, decl)| n == &name && inside(*decl));
                if outside_decl && !inside_decl {
                    mut_flagged.push(name.clone());
                    out.push(finding(
                        ctx,
                        "C1",
                        idx,
                        format!(
                            "`&mut {name}` borrows state declared outside this parallel region — cells must not share mutable state"
                        ),
                    ));
                }
            }
        }
    }
}

/// C2 — `static mut` or `Ordering::Relaxed` anywhere in non-test code.
/// Each legitimate site carries a per-line `allow(C2)` pragma arguing why
/// relaxed ordering cannot reach results.
fn c2_relaxed_and_static_mut(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test[idx] {
            continue;
        }
        let code = &line.code;
        if code.contains("Ordering::Relaxed") {
            out.push(finding(
                ctx,
                "C2",
                idx,
                "`Ordering::Relaxed` — justify why reordering cannot reach results (allow(C2) with the proof) or strengthen the ordering"
                    .to_string(),
            ));
        }
        if let Some(pos) = find_keyword(code, "static") {
            if code[pos + "static".len()..]
                .trim_start()
                .starts_with("mut ")
            {
                out.push(finding(
                    ctx,
                    "C2",
                    idx,
                    "`static mut` is an un-synchronized global — use an atomic or a passed-in &mut"
                        .to_string(),
                ));
            }
        }
    }
}

/// M1 (per-file half) — `NETPACK_*` reads in a library crate
/// ([`E1_CRATES`]), and reads anywhere else whose name is not in the
/// registry. The lint crate itself is exempt: it names every variable
/// without reading any. The workspace-level cross-checks (dead entries,
/// README) run in [`crate::registry::cross_check`].
fn m1_env_reads(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if ctx.path.starts_with("crates/lint/") {
        return;
    }
    let library = E1_CRATES.contains(&ctx.crate_name);
    for (idx, name) in registry::reads_in(ctx.lines, ctx.is_test) {
        let message = if library {
            format!(
                "`{name}` in a library crate — library crates read no environment; parse it in a binary (crates/bench, crates/cli) and pass a typed config"
            )
        } else if registry::find(&name).is_none() {
            format!(
                "`{name}` is read but not in the mode-gate registry (crates/lint/src/registry.rs) — register it with a README row"
            )
        } else {
            continue;
        };
        out.push(finding(ctx, "M1", idx, message));
    }
}

/// E1 — panics in library-crate non-test code.
fn e1_panics(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !E1_CRATES.contains(&ctx.crate_name) {
        return;
    }
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.is_test[idx] {
            continue;
        }
        let code = &line.code;
        for pattern in [".unwrap()", ".expect(", "panic!("] {
            if code.contains(pattern) {
                out.push(finding(
                    ctx,
                    "E1",
                    idx,
                    format!(
                        "`{}` in library code — return a typed error or prove the invariant in an `expect` message and suppress",
                        pattern.trim_end_matches('(')
                    ),
                ));
            }
        }
    }
}
