//! rule `non-commutative-merge` (deny): commutativity discipline for
//! accumulator merges.
//!
//! The streaming contract (DESIGN §11) is that `StreamFunnel::absorb`
//! folds each epoch into a total whose value is independent of how the
//! stream was cut into epochs — the sequential commit absorbs epochs in
//! canonical order, and any grouping must give the same result. That
//! only yields byte-identical results if the fold is order-insensitive
//! (commutative + associative) *or* the call order is itself pinned.
//! Inside any `fn merge(..)` / `fn absorb(..)` this rule flags the
//! operations that break commutativity:
//!
//! - subtraction / division on accumulator state (`-=`, `/=`) — not
//!   commutative, a chunking change reorders operands;
//! - `push` / `extend` / `append` without a subsequent deterministic
//!   sort in the same body — concatenation order is call order;
//! - float accumulation (`+=` / `*=` with a float operand hint) — FP
//!   addition is not associative, so grouping leaks into the result
//!   (`float-reduction-order` covers fan-out closures; this covers the
//!   merge fns themselves).
//!
//! A merge whose call order is pinned by construction (e.g. a commit
//! phase that absorbs epochs in canonical order, as `stream_map`'s
//! does) documents that with an
//! `// ets-lint: allow(non-commutative-merge): reason` pragma.

use crate::lexer::{Delim, TokKind};
use crate::rules::{statement_has_float_hint, ORDERING_IDENTS};
use crate::{Diagnostic, FileCtx, Tier};

const RULE: &str = "non-commutative-merge";

/// Function names bound by the accumulator-merge contract.
const MERGE_FNS: &[&str] = &["merge", "absorb"];

/// Appending methods whose result depends on call order unless sorted
/// afterwards.
const APPEND_METHODS: &[&str] = &["push", "extend", "append", "push_back", "push_front"];

pub fn non_commutative_merge(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.tokens;
    for f in &ctx.ast.fns {
        if !MERGE_FNS.contains(&f.name.as_str()) {
            continue;
        }
        let Some((body_s, body_e)) = f.body else {
            continue;
        };
        let body_e = body_e.min(toks.len());
        for i in body_s..body_e {
            let t = &toks[i];
            if ctx.in_test_code(i) || ctx.allowed(RULE, t.line) {
                continue;
            }
            if t.kind == TokKind::Punct && matches!(t.text.as_str(), "-=" | "/=") {
                out.push(ctx.diag(
                    RULE,
                    Tier::Deny,
                    t,
                    format!(
                        "`{}` in `fn {}`: subtraction/division does not commute, so the \
                         merged value depends on chunk grouping; restructure the \
                         accumulator so merges only add",
                        t.text, f.name
                    ),
                ));
                continue;
            }
            if t.kind == TokKind::Punct
                && matches!(t.text.as_str(), "+=" | "*=")
                && statement_has_float_hint(toks, i, body_s, body_e)
            {
                out.push(ctx.diag(
                    RULE,
                    Tier::Deny,
                    t,
                    format!(
                        "float accumulation in `fn {}`: FP addition is not associative, \
                         so the merged value depends on chunk grouping; accumulate in \
                         integers (or fixed order) and derive floats at the end",
                        f.name
                    ),
                ));
                continue;
            }
            // `.push(..)` / `.extend(..)` with no deterministic sort
            // later in the same body.
            let is_append = t.kind == TokKind::Ident
                && APPEND_METHODS.contains(&t.text.as_str())
                && i > 0
                && toks[i - 1].is_punct(".")
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::Open(Delim::Paren));
            if is_append {
                let sorted_later = toks[i..body_e].iter().any(|n| {
                    n.kind == TokKind::Ident && ORDERING_IDENTS.contains(&n.text.as_str())
                });
                if !sorted_later {
                    out.push(ctx.diag(
                        RULE,
                        Tier::Deny,
                        t,
                        format!(
                            "`.{}(..)` in `fn {}` without a subsequent deterministic sort: \
                             concatenation order is merge-call order, which chunking \
                             controls; sort the collection before it leaves the merge, or \
                             justify that call order is pinned",
                            t.text, f.name
                        ),
                    ));
                }
            }
        }
    }
}
