//! Lightweight syntax tree over the token stream.
//!
//! The token walkers of the first five rules see a flat stream; the
//! rules added for the concurrency-commit discipline need *structure*:
//! which tokens form a closure body, which closure sits in the worker
//! position of a fan-out call, which `fn` a statement belongs to, which
//! names are bound locally. This module defines that structure — a
//! delimiter tree plus derived item/closure/call tables — and the
//! resolver mapping closures to worker/commit positions of the
//! `ets-parallel` entry points. [`crate::parser`] builds it; it stays
//! deliberately shallow (no types, no full expression grammar) because
//! every consumer is a lint heuristic that must never reject
//! weird-but-compiling Rust.

use crate::lexer::{Delim, Token};

/// One node of the delimiter tree: either a single token or a balanced
/// group with its children.
#[derive(Debug, Clone)]
pub enum Tree {
    /// Index into the token stream.
    Leaf(usize),
    /// A `(..)` / `[..]` / `{..}` group. `open`/`close` are token
    /// indices of the delimiters; `close` is `None` when the file ends
    /// before the group is closed (recorded as a parse error).
    Group {
        delim: Delim,
        open: usize,
        close: Option<usize>,
        children: Vec<Tree>,
    },
}

impl Tree {
    /// Token index where this node starts.
    pub fn start(&self) -> usize {
        match self {
            Tree::Leaf(i) => *i,
            Tree::Group { open, .. } => *open,
        }
    }
}

/// A structural problem found while building the tree. Compiling Rust
/// never produces one; the workspace self-parse test pins that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// A `fn` item (free function, inherent/trait method — anything the
/// `fn` keyword introduces with a name).
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's name.
    pub name: String,
    /// Token index of the name (diagnostic anchor).
    pub name_idx: usize,
    /// Identifiers bound by the parameter list (pattern side only).
    pub params: Vec<String>,
    /// Return-type tokens joined with single spaces, `""` when absent —
    /// e.g. `"Result < () , StoreError >"`. Structured enough for the
    /// error-type sniffing `swallowed-error` does.
    pub ret: String,
    /// Token range `[start, end)` of the body including its braces;
    /// `None` for bodyless trait methods.
    pub body: Option<(usize, usize)>,
}

/// A closure literal: `|args| expr`, `move |args| { .. }`, `|| f()`.
#[derive(Debug, Clone)]
pub struct ClosureInfo {
    /// Token index of the opening `|` / `||` (diagnostic anchor).
    pub head: usize,
    /// Identifiers bound by the closure's parameter patterns.
    pub params: Vec<String>,
    /// Token range `[start, end)` of the body (brace group including
    /// braces, or the expression up to the enclosing `,` / `;` / close).
    pub body: (usize, usize),
    /// Names bound *inside* the body: `let` patterns, `for` patterns,
    /// `mut` pattern bindings, nested closure params. Flow-insensitive —
    /// used to separate closure-local mutation from captured-state
    /// mutation.
    pub locals: Vec<String>,
}

impl ClosureInfo {
    /// True if `name` is bound by this closure (param or body-local).
    pub fn binds(&self, name: &str) -> bool {
        self.params.iter().any(|p| p == name) || self.locals.iter().any(|l| l == name)
    }
}

/// A call expression `callee(args)` — free call, path call, or method
/// call (`callee` is then the method name and `method` is true).
#[derive(Debug, Clone)]
pub struct CallInfo {
    /// Last path segment before the argument list.
    pub callee: String,
    /// Token index of the callee segment.
    pub callee_idx: usize,
    /// Token index of the opening `(`.
    pub open: usize,
    /// Token index one past the closing `)`.
    pub end: usize,
    /// Token ranges `[start, end)` of the top-level comma-separated
    /// arguments (empty ranges for empty args are omitted).
    pub args: Vec<(usize, usize)>,
    /// Preceded by `.` — a method call.
    pub method: bool,
}

/// The parsed file: the delimiter tree plus derived tables. Built by
/// [`crate::parser::parse`].
#[derive(Debug, Default)]
pub struct Ast {
    pub roots: Vec<Tree>,
    pub errors: Vec<ParseError>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnInfo>,
    /// Every closure literal, in source order (so an outer closure
    /// always precedes the closures nested in its body).
    pub closures: Vec<ClosureInfo>,
    /// Every call expression, in source order.
    pub calls: Vec<CallInfo>,
}

/// Which phase of the parallel-compute / sequential-commit discipline a
/// closure argument runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Runs concurrently on worker threads; shared mutation here is a
    /// race and a determinism hazard.
    Worker,
    /// Runs strictly one at a time, in canonical order (`stream_map`'s
    /// commit: on the worker that computed the result, under the
    /// stream's lock) — `&mut` state is the sanctioned pattern.
    Commit,
}

/// Fan-out entry points of `ets-parallel` and, per entry, whether the
/// *last* closure-bearing argument is the sequential commit phase.
const FAN_OUT: &[(&str, bool)] = &[
    ("par_map", false),
    ("par_map_index", false),
    // stream_map(n, worker, commit): commits run one at a time, in
    // index order, each on the worker that computed its result, under
    // the stream's lock.
    ("stream_map", true),
];

/// A closure resolved to a fan-out argument position.
#[derive(Debug)]
pub struct FanoutClosure<'a> {
    /// The fan-out entry point name (`par_map`, `stream_map`, ...).
    pub call: &'a str,
    /// Token index of the call (diagnostic context).
    pub call_idx: usize,
    pub phase: Phase,
    pub closure: &'a ClosureInfo,
}

/// Resolves which closures are worker bodies (and which are commit
/// bodies) of `ets-parallel` fan-out calls: for each call to a
/// `FAN_OUT` entry, each top-level argument contributing a closure is
/// classified by position — the last closure-bearing argument of
/// `stream_map` is the sequential commit phase, everything else runs on
/// workers.
pub fn fanout_closures(ast: &Ast) -> Vec<FanoutClosure<'_>> {
    let mut out = Vec::new();
    for call in &ast.calls {
        let Some(&(name, has_commit)) = FAN_OUT.iter().find(|(n, _)| *n == call.callee) else {
            continue;
        };
        // The outermost closure per argument: the first closure whose
        // head lies in the argument range (nested closures start later).
        let arg_closures: Vec<(usize, &ClosureInfo)> = call
            .args
            .iter()
            .enumerate()
            .filter_map(|(slot, &(s, e))| {
                ast.closures
                    .iter()
                    .find(|c| c.head >= s && c.head < e)
                    .map(|c| (slot, c))
            })
            .collect();
        let commit_slot = if has_commit {
            arg_closures.last().map(|&(slot, _)| slot)
        } else {
            None
        };
        for (slot, closure) in arg_closures {
            out.push(FanoutClosure {
                call: name,
                call_idx: call.callee_idx,
                phase: if Some(slot) == commit_slot {
                    Phase::Commit
                } else {
                    Phase::Worker
                },
                closure,
            });
        }
    }
    out
}

/// Walks left from the token *before* `op_idx` to the root identifier
/// of an assignment target (or borrow target): skips `.field` / `.0`
/// chains, `[index]` groups, and leading `*` derefs. Returns the token
/// index of the root identifier, or `None` when the target does not
/// start with a plain identifier (e.g. `(*ptr).x`, slice patterns).
pub fn lvalue_root(toks: &[Token], op_idx: usize) -> Option<usize> {
    use crate::lexer::TokKind;
    let mut i = op_idx;
    loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        match toks[i].kind {
            // `[index]` — skip to the matching open bracket.
            TokKind::Close(Delim::Bracket) => {
                let mut depth = 0i32;
                loop {
                    match toks[i].kind {
                        TokKind::Close(_) => depth += 1,
                        TokKind::Open(_) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if i == 0 {
                        return None;
                    }
                    i -= 1;
                }
            }
            TokKind::Ident | TokKind::Number => {
                // Continue only while the chain extends left via `.`.
                if i >= 1 && toks[i - 1].is_punct(".") {
                    i -= 1; // land on the `.`; loop decrements past it
                    continue;
                }
                return if toks[i].kind == TokKind::Ident {
                    Some(i)
                } else {
                    None
                };
            }
            _ => return None,
        }
    }
}
