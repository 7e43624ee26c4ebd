#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `netpack-lint` — determinism, concurrency & mode-gate static analysis
//! for the NetPack workspace.
//!
//! Every fast path in this repo (incremental water-filling, the flow- and
//! packet-level simulator loops, the flat placement path, the exact
//! branch-and-bound) carries a bit-identity contract with its
//! from-scratch reference. That
//! contract dies quietly the moment code iterates a hash-ordered
//! container, reads the wall clock into simulation state, draws unseeded
//! randomness, re-associates a float reduction inside a parallel fold,
//! shares mutable state across parallel cells, or ships a mode switch
//! nobody documented or gated. The property tests sample those hazards;
//! this crate forbids them *statically*, before a single simulation runs.
//!
//! Nine rules (fixture-tested in `tests/`; `--explain <rule>` prints the
//! full rationale):
//!
//! | rule | hazard |
//! |------|--------|
//! | `D1` | `HashMap`/`HashSet` iteration in sim/placement crates |
//! | `D2` | `Instant::now` / `SystemTime` outside `metrics::perf` |
//! | `D3` | unseeded randomness (`thread_rng`, `from_entropy`, `rand::random`) |
//! | `N1` | float `+=` / `.sum()` inside parallel regions |
//! | `E1` | `.unwrap()` / `.expect()` / `panic!` in library-crate code |
//! | `C1` | shared mutable state captured by a parallel closure |
//! | `C2` | `static mut` / `Ordering::Relaxed` without a per-site proof |
//! | `M1` | `NETPACK_*` env reads outside the declared registry, or in any library crate |
//! | `P1` | suppression pragmas that no longer suppress anything |
//!
//! Since v2 the analysis is scope-aware: a block/item tree ([`scopes`])
//! built on the same dependency-free scanner ([`lexer`]) attributes every
//! finding to its enclosing function and lets the concurrency rules
//! distinguish state declared inside a parallel closure from state
//! captured across it. The [`registry`] module declares every `NETPACK_*`
//! variable once and cross-checks it against workspace reads and the
//! README env table.
//!
//! Test code is exempt from every rule. Individual findings are silenced
//! with `// netpack-lint: allow(<rule>): <reason>` (the reason is
//! mandatory, and a pragma that suppresses nothing is itself a P1
//! finding); there is no baseline of grandfathered findings — any finding
//! fails the build. The tool is std-only — no `syn`, no proc-macro
//! machinery.

pub mod engine;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod scopes;

pub use engine::{analyze_source, run, run_root, FileReport, OutputFormat, RunReport};
pub use rules::{explain, Finding, D1_CRATES, E1_CRATES, RULES};
