//! A lightweight block/item scope tree over blanked source lines.
//!
//! PR 4's rules were purely line-oriented: they could say *what* looked
//! hazardous but not *where it sat* — which function a finding belongs
//! to, whether a name used inside a parallel closure was declared outside
//! it, whether a file's braces even balance. This module adds the minimal
//! structure those questions need, still on the dependency-free
//! [`crate::lexer`] output (no `syn`): a tree of `{…}` blocks where each
//! node remembers the *header* that introduced it (`fn name`, `mod name`,
//! `impl Type`, or nothing for a plain block) and its line span.
//!
//! The parser is deliberately forgiving — macro-heavy or truncated
//! fixture snippets must not abort an analysis — so imbalance is reported
//! as [`ScopeTree::diagnostics`] rather than an error, and the workspace
//! self-test (`tests/workspace_self_check.rs`) asserts the diagnostics
//! are empty for every real source file in the repo.

use crate::lexer::{is_ident_char, Line};

/// What introduced a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// The whole file.
    Root,
    /// `fn name(…) {…}` — the unit findings are attributed to.
    Fn,
    /// A named item that is not a function: `mod`, `impl`, `struct`,
    /// `enum`, `trait`, `union`.
    Item,
    /// Any other `{…}` block: expression blocks, match/if/loop bodies,
    /// struct literals, closures.
    Block,
}

/// One node of the scope tree.
#[derive(Debug, Clone)]
pub struct Scope {
    /// What kind of construct opened this scope.
    pub kind: ScopeKind,
    /// The item's name (`fn foo` → `foo`, `impl Cluster` → `Cluster`);
    /// empty for plain blocks and the root.
    pub name: String,
    /// 1-based line where the scope's header begins (the `fn` line for a
    /// multi-line signature), or the `{` line for plain blocks.
    pub start: usize,
    /// 1-based line of the matching `}` (end of file when unterminated).
    pub end: usize,
    /// Nested scopes, in source order.
    pub children: Vec<Scope>,
}

impl Scope {
    /// Does this scope's span contain `line` (1-based)?
    pub fn contains(&self, line: usize) -> bool {
        self.start <= line && line <= self.end
    }
}

/// The parsed scope structure of one file.
#[derive(Debug, Clone)]
pub struct ScopeTree {
    /// The file-level scope; every other scope is a descendant.
    pub root: Scope,
    /// Structural problems found while parsing (unbalanced braces).
    /// Empty for every well-formed Rust file.
    pub diagnostics: Vec<String>,
}

impl ScopeTree {
    /// The innermost `fn` whose span contains `line`, if any.
    pub fn enclosing_fn(&self, line: usize) -> Option<&Scope> {
        let mut best: Option<&Scope> = None;
        let mut stack: Vec<&Scope> = vec![&self.root];
        while let Some(scope) = stack.pop() {
            if !scope.contains(line) {
                continue;
            }
            if scope.kind == ScopeKind::Fn {
                best = Some(match best {
                    Some(b) if b.start >= scope.start => b,
                    _ => scope,
                });
            }
            stack.extend(scope.children.iter());
        }
        best
    }

    /// Every scope in the tree, preorder, including the root.
    pub fn iter(&self) -> Vec<&Scope> {
        let mut out = Vec::new();
        let mut stack: Vec<&Scope> = vec![&self.root];
        while let Some(scope) = stack.pop() {
            out.push(scope);
            stack.extend(scope.children.iter().rev());
        }
        out
    }

    /// Structural invariants every parse must satisfy, regardless of the
    /// input: child spans nest inside their parent and start in order.
    /// Returns problems as strings; the workspace self-test asserts none.
    pub fn span_problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut stack: Vec<&Scope> = vec![&self.root];
        while let Some(scope) = stack.pop() {
            if scope.start > scope.end {
                problems.push(format!(
                    "scope `{}` spans backwards: {}..{}",
                    scope.name, scope.start, scope.end
                ));
            }
            let mut prev_start = 0usize;
            for child in &scope.children {
                if child.start < scope.start || child.end > scope.end {
                    problems.push(format!(
                        "child `{}` ({}..{}) escapes parent `{}` ({}..{})",
                        child.name, child.start, child.end, scope.name, scope.start, scope.end
                    ));
                }
                if child.start < prev_start {
                    problems.push(format!("children out of order at line {}", child.start));
                }
                prev_start = child.start;
                stack.push(child);
            }
        }
        problems
    }
}

/// Item keywords that name the scope they introduce.
const ITEM_KEYWORDS: [&str; 6] = ["mod", "impl", "struct", "enum", "trait", "union"];

/// Parse blanked lines into a scope tree.
pub fn parse(lines: &[Line]) -> ScopeTree {
    // Stack of open scopes; index 0 is the root.
    let mut stack: Vec<Scope> = vec![Scope {
        kind: ScopeKind::Root,
        name: String::new(),
        start: 1,
        end: lines.len().max(1),
        children: Vec::new(),
    }];
    let mut diagnostics = Vec::new();
    // Header text accumulated since the last `{`, `}`, or `;`, and the
    // line its first non-blank character appeared on.
    let mut header = String::new();
    let mut header_start: Option<usize> = None;

    for (idx, line) in lines.iter().enumerate() {
        for c in line.code.chars() {
            match c {
                '{' => {
                    let (kind, name) = classify_header(&header);
                    let start = match kind {
                        ScopeKind::Block => idx + 1,
                        _ => header_start.unwrap_or(idx + 1),
                    };
                    stack.push(Scope {
                        kind,
                        name,
                        start,
                        end: idx + 1, // fixed up when the `}` is seen
                        children: Vec::new(),
                    });
                    header.clear();
                    header_start = None;
                }
                '}' => {
                    header.clear();
                    header_start = None;
                    if stack.len() == 1 {
                        diagnostics.push(format!("unmatched `}}` at line {}", idx + 1));
                        continue;
                    }
                    let mut done = stack.pop().unwrap_or_else(|| unreachable!());
                    done.end = idx + 1;
                    if let Some(parent) = stack.last_mut() {
                        parent.children.push(done);
                    }
                }
                ';' => {
                    header.clear();
                    header_start = None;
                }
                c => {
                    if !c.is_whitespace() && header_start.is_none() {
                        header_start = Some(idx + 1);
                    }
                    header.push(c);
                }
            }
        }
        header.push(' ');
    }

    // Close unterminated scopes at EOF (diagnosed: a well-formed file has
    // none) and fold them into the root.
    while stack.len() > 1 {
        let mut open = stack.pop().unwrap_or_else(|| unreachable!());
        diagnostics.push(format!(
            "scope `{}` opened at line {} never closes",
            open.name, open.start
        ));
        open.end = lines.len().max(1);
        if let Some(parent) = stack.last_mut() {
            parent.children.push(open);
        }
    }
    let mut root = stack.pop().unwrap_or_else(|| unreachable!());
    root.end = lines.len().max(1);
    ScopeTree { root, diagnostics }
}

/// Classify the header text preceding a `{`.
fn classify_header(header: &str) -> (ScopeKind, String) {
    // `fn` wins over item keywords so `impl T { fn f() {` attributes the
    // inner scope to the function. The *last* `fn` in the header is the
    // one whose body this brace opens (`fn f(g: fn() -> u32) {`).
    if let Some(name) = ident_after_last_keyword(header, "fn") {
        return (ScopeKind::Fn, name);
    }
    for kw in ITEM_KEYWORDS {
        if let Some(name) = ident_after_last_keyword(header, kw) {
            return (ScopeKind::Item, name);
        }
    }
    (ScopeKind::Block, String::new())
}

/// The identifier following the last whole-word occurrence of `kw`,
/// skipping generics and reference sigils (`impl<'a> Foo` → `Foo`).
fn ident_after_last_keyword(header: &str, kw: &str) -> Option<String> {
    let mut found: Option<String> = None;
    let mut from = 0usize;
    while let Some(pos) = header[from..].find(kw) {
        let start = from + pos;
        let end = start + kw.len();
        let before_ok =
            start == 0 || !is_ident_char(header[..start].chars().next_back().unwrap_or(' '));
        let after_ok =
            end >= header.len() || !is_ident_char(header[end..].chars().next().unwrap_or(' '));
        if before_ok && after_ok {
            let rest = header[end..]
                .trim_start()
                .trim_start_matches(['<', '>', '\'', '&']);
            let rest = rest.trim_start();
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            // `fn()` pointer types have no name — they never name scopes,
            // so only a *named* occurrence updates the result.
            if !name.is_empty() {
                found = Some(name);
            }
        }
        from = end;
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn tree(src: &str) -> ScopeTree {
        parse(&lexer::scan(src))
    }

    #[test]
    fn nested_items_and_fns_get_names_and_spans() {
        let src = "\
mod outer {
    impl Cluster {
        pub fn place(
            &self,
        ) -> u32 {
            let x = 1;
            x
        }
    }
}
";
        let t = tree(src);
        assert!(t.diagnostics.is_empty(), "{:?}", t.diagnostics);
        let outer = &t.root.children[0];
        assert_eq!(
            (outer.kind, outer.name.as_str()),
            (ScopeKind::Item, "outer")
        );
        assert_eq!((outer.start, outer.end), (1, 10));
        let imp = &outer.children[0];
        assert_eq!((imp.kind, imp.name.as_str()), (ScopeKind::Item, "Cluster"));
        let f = &imp.children[0];
        assert_eq!((f.kind, f.name.as_str()), (ScopeKind::Fn, "place"));
        // Multi-line signature: the span starts at the `pub fn` line.
        assert_eq!((f.start, f.end), (3, 8));
    }

    #[test]
    fn enclosing_fn_picks_the_innermost() {
        let src = "\
fn outer() {
    fn inner() {
        work();
    }
    more();
}
";
        let t = tree(src);
        assert_eq!(t.enclosing_fn(3).map(|s| s.name.as_str()), Some("inner"));
        assert_eq!(t.enclosing_fn(5).map(|s| s.name.as_str()), Some("outer"));
        assert!(t.enclosing_fn(7).is_none());
    }

    #[test]
    fn plain_blocks_and_struct_literals_are_blocks() {
        let src = "fn f() { let c = Config { a: 1 }; match c { _ => {} } }\n";
        let t = tree(src);
        assert!(t.diagnostics.is_empty(), "{:?}", t.diagnostics);
        let f = &t.root.children[0];
        assert_eq!(f.kind, ScopeKind::Fn);
        assert!(f.children.iter().all(|s| s.kind == ScopeKind::Block));
    }

    #[test]
    fn braces_in_strings_and_comments_do_not_derail() {
        let src = "fn f() {\n    let s = \"{{{\"; // }}}\n}\nfn g() {}\n";
        let t = tree(src);
        assert!(t.diagnostics.is_empty(), "{:?}", t.diagnostics);
        assert_eq!(t.root.children.len(), 2);
    }

    #[test]
    fn imbalance_is_diagnosed_not_fatal() {
        let unclosed = tree("fn f() {\n    let x = 1;\n");
        assert_eq!(unclosed.diagnostics.len(), 1);
        assert_eq!(unclosed.root.children[0].name, "f");
        let extra = tree("}\nfn g() {}\n");
        assert_eq!(extra.diagnostics.len(), 1);
    }

    #[test]
    fn span_problems_empty_on_wellformed_input() {
        let t = tree("mod m { fn a() { if x { y(); } } fn b() {} }\n");
        assert!(t.span_problems().is_empty());
    }

    #[test]
    fn fn_pointer_types_do_not_open_fn_scopes() {
        let src = "fn takes(cb: fn() -> u32) {\n    cb();\n}\n";
        let t = tree(src);
        let f = &t.root.children[0];
        // The last named `fn` in the header is `takes`; the unnamed
        // pointer type must not steal the attribution.
        assert_eq!((f.kind, f.name.as_str()), (ScopeKind::Fn, "takes"));
    }
}
