//! rule `shared-mutation-in-fanout` (deny): the race detector for the
//! parallel-compute / sequential-commit discipline.
//!
//! Worker closures of the `ets-parallel` fan-out entry points run
//! concurrently on scoped threads; any write that escapes the closure —
//! an assignment whose target is a captured binding, a mutating
//! collection call on a captured receiver, a lock acquisition, atomic
//! read-modify-write, or interior mutability — is at best a determinism
//! hazard and at worst a data race the commit phase was designed to
//! make impossible. Commit closures (`stream_map`'s third argument) run
//! one at a time, in index order, on the worker that computed the
//! result and under the stream's lock, so they are exempt: `&mut` state
//! there *is* the sanctioned pattern.
//!
//! The rule leans on the [`crate::ast`] layer: closure bodies, the
//! bindings each closure owns (params + `let`/`for`/`mut` pattern
//! locals + nested-closure params), and the worker-position resolver.
//! Anything the closure binds itself is private per-item state and
//! never flagged.

use crate::ast::{fanout_closures, lvalue_root, Phase};
use crate::lexer::{Delim, TokKind};
use crate::rules::stmt_start_before;
use crate::{Diagnostic, FileCtx, Tier};

const RULE: &str = "shared-mutation-in-fanout";

/// Assignment operators (the lexer max-munches `==`, `=>`, `<=`, `>=`,
/// `!=` into distinct tokens, so a bare `=` here is a store).
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// Mutating collection/string methods: called on a captured receiver
/// inside a worker, these are cross-thread writes.
const MUTATING_METHODS: &[&str] = &[
    "push",
    "push_str",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "append",
    "clear",
    "remove",
    "truncate",
    "drain",
    "retain",
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Synchronization / interior-mutability methods that are suspect in a
/// worker regardless of the receiver: taking a lock or doing an atomic
/// RMW inside the fan-out reintroduces exactly the cross-thread
/// ordering dependence the discipline exists to remove.
const SYNC_METHODS: &[&str] = &[
    "lock",
    "borrow_mut",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

pub fn shared_mutation_in_fanout(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.tokens;
    for fc in fanout_closures(&ctx.ast) {
        if fc.phase == Phase::Commit {
            continue;
        }
        let (body_s, body_e) = fc.closure.body;
        for i in body_s..body_e.min(toks.len()) {
            let t = &toks[i];
            if ctx.in_test_code(i) || ctx.allowed(RULE, t.line) {
                continue;
            }
            // Assignment to a binding the closure does not own. A `=`
            // in a `let` statement is an initializer, not a store (the
            // target there is a fresh binding — and walking left from
            // the `=` would land on the type annotation, not the name).
            if t.kind == TokKind::Punct && ASSIGN_OPS.contains(&t.text.as_str()) {
                let stmt = stmt_start_before(toks, i, body_s);
                if toks[stmt].is_ident("let") {
                    continue;
                }
                if let Some(root) = lvalue_root(toks, i) {
                    let name = toks[root].text.as_str();
                    if !fc.closure.binds(name) && !is_type_path(name) {
                        out.push(ctx.diag(
                            RULE,
                            Tier::Deny,
                            t,
                            format!(
                                "worker closure of `{}` writes to `{name}`, which it captures \
                                 from the enclosing scope; workers must only touch \
                                 closure-local state — return the value and mutate in the \
                                 sequential commit/merge phase instead",
                                fc.call
                            ),
                        ));
                    }
                }
                continue;
            }
            if t.kind != TokKind::Ident {
                continue;
            }
            let is_method_call = i > 0
                && toks[i - 1].is_punct(".")
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::Open(Delim::Paren));
            if !is_method_call {
                continue;
            }
            // `.write()` with no argument is RwLock's write lock;
            // `io::Write::write` always takes a buffer.
            let is_write_lock = t.text == "write"
                && toks
                    .get(i + 2)
                    .is_some_and(|n| n.kind == TokKind::Close(Delim::Paren));
            if SYNC_METHODS.contains(&t.text.as_str()) || is_write_lock {
                out.push(ctx.diag(
                    RULE,
                    Tier::Deny,
                    t,
                    format!(
                        "`.{}()` inside a worker closure of `{}`: locks, atomics, and \
                         interior mutability reintroduce cross-thread ordering into the \
                         fan-out; move the shared update into the sequential commit phase",
                        t.text, fc.call
                    ),
                ));
                continue;
            }
            if MUTATING_METHODS.contains(&t.text.as_str()) {
                // Receiver root: the identifier the `.method(..)` chain
                // hangs off. Unresolvable receivers (temporaries like
                // `f().push(..)`) are closure-local by construction.
                let Some(root) = lvalue_root(toks, i - 1) else {
                    continue;
                };
                let name = toks[root].text.as_str();
                if !fc.closure.binds(name) && !is_type_path(name) {
                    out.push(ctx.diag(
                        RULE,
                        Tier::Deny,
                        t,
                        format!(
                            "worker closure of `{}` calls `{name}.{}(..)` on a captured \
                             binding; collect per-item results and apply them in the \
                             sequential commit/merge phase",
                            fc.call, t.text
                        ),
                    ));
                }
            }
        }
    }
}

/// Capitalized roots are type paths (`Vec::new`, `String::from`), not
/// captured bindings.
fn is_type_path(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}
