//! `ets-lint` — workspace determinism & hygiene analyzer.
//!
//! PRs 1–2 made *byte-identical, thread-invariant output* this
//! repository's defining invariant. This crate turns that invariant into
//! a machine-checked property of the source tree: a dependency-free
//! static-analysis pass (hand-written lexer + token walker, no `syn`)
//! with file:line:col diagnostics, `// ets-lint: allow(<rule>)`
//! suppression pragmas, and human or JSON output.
//!
//! Rules:
//!
//! | rule | tier | what it catches |
//! |------|------|-----------------|
//! | `unordered-iteration` | deny | `HashMap`/`HashSet` iteration in non-test code of analytical crates without an adjacent sort / ordered re-collection |
//! | `nondeterministic-source` | deny | `Instant::now` / `SystemTime` / `thread_rng` / `RandomState` anywhere but the timing-only allowlist, `crates/obs/src/clock.rs` |
//! | `float-reduction-order` | deny | floating-point accumulation inside `ets-parallel` fan-out closures (chunk boundaries depend on the worker count, so FP reduction there is thread-dependent) |
//! | `panic-in-library` | warn | `unwrap()` / `expect()` / `panic!` in library crates, ratcheted down by a per-crate budget file |
//! | `crate-hygiene` | deny | crate roots missing `#![forbid(unsafe_code)]` |
//! | `shared-mutation-in-fanout` | deny | writes to captured state, lock/atomic mutation, or interior mutability inside worker closures of `ets-parallel` fan-out calls (sequential commit closures exempt) |
//! | `swallowed-error` | deny | `.unwrap()` / `.expect()` / `let _ =` / dropped `.ok()` on `Result`s carrying `StoreError` / `io::Error` in library crates |
//! | `non-commutative-merge` | deny | order-dependent operations (subtraction, division, unsorted `push`/`extend`, float accumulation) inside `merge`/`absorb` fns |
//!
//! The last three are syntax-aware: they run on the lightweight AST
//! built by [`parser`] over the token stream ([`ast`] holds the node
//! types and the worker-position resolver).
//!
//! A pragma suppresses a rule on its own line and on the next line of
//! code: `// ets-lint: allow(unordered-iteration): reason`. Pragmas are
//! themselves budgeted per crate (`crates/lint/pragma_budget.json`) so
//! suppression debt ratchets down, never silently up.

#![forbid(unsafe_code)]

pub mod ast;
pub mod budget;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod workspace;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use lexer::{lex, Delim, TokKind, Token};

/// Diagnostic severity tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Fails the build under `--deny`.
    Deny,
    /// Counted against the per-crate budget file; never fails on its own.
    Warn,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Deny => "deny",
            Tier::Warn => "warn",
        })
    }
}

/// One finding, addressed by workspace-relative path and 1-based
/// line/column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub tier: Tier,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}] {}",
            self.file, self.line, self.col, self.tier, self.rule, self.message
        )
    }
}

/// Static facts about a file that rules condition on. The workspace
/// driver derives these from crate layout; tests construct them by hand.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Package name, e.g. `ets-core`.
    pub crate_name: String,
    /// Workspace-relative path used in diagnostics.
    pub display_path: String,
    /// Bare file name, e.g. `analysis.rs`.
    pub file_name: String,
    /// `src/lib.rs` or `src/main.rs` of a crate.
    pub is_crate_root: bool,
    /// Member of the analytical-crate set (`unordered-iteration` scope).
    pub analytical: bool,
    /// Library code (`panic-in-library` scope).
    pub library: bool,
    /// Timing-only allowlist (`nondeterministic-source` exemption).
    pub timing_allowed: bool,
}

/// Names of every rule, in reporting order.
pub const RULES: &[&str] = &[
    "unordered-iteration",
    "nondeterministic-source",
    "float-reduction-order",
    "panic-in-library",
    "crate-hygiene",
    "shared-mutation-in-fanout",
    "swallowed-error",
    "non-commutative-merge",
];

/// Lexed file plus the derived facts every rule needs: pragma map,
/// `#[cfg(test)]` / `#[test]` token ranges, and a per-line ident index.
pub struct FileCtx<'a> {
    pub meta: &'a FileMeta,
    pub tokens: Vec<Token>,
    /// Structural parse of the token stream (syntax-aware rules).
    pub ast: ast::Ast,
    /// Number of `ets-lint: allow(...)` pragma comments in the file
    /// (counted against `pragma_budget.json`).
    pub pragma_count: usize,
    /// `rule name -> set of suppressed lines`.
    pragma_lines: BTreeMap<String, BTreeSet<u32>>,
    /// Token-index ranges lexically inside test-only code.
    test_ranges: Vec<(usize, usize)>,
    /// Identifier texts per line (sort-window scans).
    line_idents: BTreeMap<u32, Vec<String>>,
}

impl<'a> FileCtx<'a> {
    pub fn new(meta: &'a FileMeta, src: &str) -> Self {
        let lexed = lex(src);

        // Pragmas: `ets-lint: allow(rule-a, rule-b)` in a line comment
        // suppresses those rules on the pragma's line and on the next
        // line that carries code. Doc comments are excluded: prose that
        // *mentions* the pragma syntax (like this crate's own docs) is
        // not a suppression and must not count against the pragma
        // budget.
        let mut code_lines: BTreeSet<u32> = BTreeSet::new();
        let mut line_idents: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for t in &lexed.tokens {
            code_lines.insert(t.line);
            if t.kind == TokKind::Ident {
                line_idents.entry(t.line).or_default().push(t.text.clone());
            }
        }
        let mut pragma_lines: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
        let mut pragma_count = 0usize;
        for c in &lexed.comments {
            if c.text.starts_with("///") || c.text.starts_with("//!") {
                continue;
            }
            // The pragma must lead the comment (`// ets-lint: allow(..)`);
            // prose that merely mentions the syntax mid-sentence is not a
            // suppression.
            let lead = c.text.trim_start_matches('/').trim_start();
            let Some(rest) = lead.strip_prefix("ets-lint:") else {
                continue;
            };
            let rest = rest.trim_start();
            let Some(rest) = rest.strip_prefix("allow") else {
                continue;
            };
            let Some(open) = rest.find('(') else { continue };
            let Some(close) = rest[open..].find(')') else {
                continue;
            };
            pragma_count += 1;
            let next_code = code_lines.range(c.line + 1..).next().copied();
            for rule in rest[open + 1..open + close].split(',') {
                let rule = rule.trim().to_string();
                let entry = pragma_lines.entry(rule).or_default();
                entry.insert(c.line);
                if let Some(n) = next_code {
                    entry.insert(n);
                }
            }
        }

        let test_ranges = find_test_ranges(&lexed.tokens);
        let ast = parser::parse(&lexed.tokens);

        FileCtx {
            meta,
            tokens: lexed.tokens,
            ast,
            pragma_count,
            pragma_lines,
            test_ranges,
            line_idents,
        }
    }

    /// True if `rule` is suppressed on `line` by a pragma.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.pragma_lines
            .get(rule)
            .is_some_and(|s| s.contains(&line))
    }

    /// True if the token at `idx` sits inside `#[cfg(test)]` / `#[test]`
    /// code.
    pub fn in_test_code(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// True if any identifier in lines `[lo, hi]` is in `names`.
    pub fn window_has_ident(&self, lo: u32, hi: u32, names: &[&str]) -> bool {
        self.line_idents
            .range(lo..=hi)
            .any(|(_, ids)| ids.iter().any(|id| names.contains(&id.as_str())))
    }

    pub fn diag(&self, rule: &'static str, tier: Tier, tok: &Token, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            tier,
            file: self.meta.display_path.clone(),
            line: tok.line,
            col: tok.col,
            message,
        }
    }
}

/// Finds token ranges covered by `#[cfg(test)]` or `#[test]` attributes:
/// from the attribute through the close of the brace group that follows
/// (a `mod tests { ... }` body or a test fn body). Attribute targets
/// without a brace group (e.g. `#[cfg(test)] use x;`) end at the `;`.
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    // Index just past the group whose opener is at `open`.
    fn skip_group(tokens: &[Token], open: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while let Some(t) = tokens.get(j) {
            match t.kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        tokens.len()
    }

    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Open(Delim::Bracket)))
        {
            i += 1;
            continue;
        }
        let attr_end = skip_group(tokens, i + 1); // just past `]`
        let body = &tokens[i + 2..attr_end.saturating_sub(1)];
        let is_test_attr = match body.first() {
            Some(t) if t.is_ident("test") && body.len() == 1 => true,
            Some(t) if t.is_ident("cfg") => body.iter().enumerate().any(|(k, t)| {
                // `test` inside the cfg predicate, but not `not(test)`.
                t.is_ident("test") && !(k >= 2 && body[k - 2].is_ident("not"))
            }),
            _ => false,
        };
        if !is_test_attr {
            i = attr_end;
            continue;
        }
        // Skip any further attributes, then walk to the item's `{` (or
        // give up at a `;` — attribute on a brace-less item).
        let mut j = attr_end;
        let mut depth = 0i32;
        let mut start_brace = None;
        while let Some(t) = tokens.get(j) {
            if t.is_punct("#")
                && tokens
                    .get(j + 1)
                    .is_some_and(|t| t.kind == TokKind::Open(Delim::Bracket))
            {
                j = skip_group(tokens, j + 1);
                continue;
            }
            match t.kind {
                TokKind::Open(Delim::Brace) if depth == 0 => {
                    start_brace = Some(j);
                    break;
                }
                TokKind::Punct if t.text == ";" && depth == 0 => break,
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if let Some(sb) = start_brace {
            let end = skip_group(tokens, sb);
            ranges.push((i, end));
            i = end;
        } else {
            i = attr_end;
        }
    }
    ranges
}

/// Runs every rule over an already-built [`FileCtx`].
pub fn lint_ctx(ctx: &FileCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rules::unordered_iteration(ctx, &mut out);
    rules::nondeterministic_source(ctx, &mut out);
    rules::float_reduction_order(ctx, &mut out);
    rules::panic_in_library(ctx, &mut out);
    rules::crate_hygiene(ctx, &mut out);
    rules::fanout::shared_mutation_in_fanout(ctx, &mut out);
    rules::errors::swallowed_error(ctx, &mut out);
    rules::merge::non_commutative_merge(ctx, &mut out);
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    out
}

/// Runs every rule over one file.
pub fn lint_file(meta: &FileMeta, src: &str) -> Vec<Diagnostic> {
    lint_ctx(&FileCtx::new(meta, src))
}

/// Serializes diagnostics as deterministic JSON (hand-rolled: the crate
/// is dependency-free).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut s = String::from("{\n  \"findings\": [\n");
    for (i, d) in diags.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"tier\": {}, \"message\": {}}}{}\n",
            json_str(&d.file),
            d.line,
            d.col,
            json_str(d.rule),
            json_str(&d.tier.to_string()),
            json_str(&d.message),
            if i + 1 < diags.len() { "," } else { "" },
        ));
    }
    let deny = diags.iter().filter(|d| d.tier == Tier::Deny).count();
    let warn = diags.len() - deny;
    s.push_str(&format!(
        "  ],\n  \"summary\": {{\"deny\": {deny}, \"warn\": {warn}}}\n}}\n"
    ));
    s
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}
