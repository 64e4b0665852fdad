//! The five determinism & hygiene rules.
//!
//! All rules work on the flat token stream with positions; none of them
//! needs type information. Where a rule is heuristic (tracking which
//! locals are hash collections, spotting an adjacent sort) the
//! heuristics are deliberately conservative-in-one-direction: a false
//! positive costs one `// ets-lint: allow(...)` pragma with a written
//! justification, while a false negative silently erodes the
//! reproducibility invariant the whole pipeline is built on.

pub mod errors;
pub mod fanout;
pub mod merge;

use crate::lexer::{is_float_literal, Delim, TokKind, Token};
use crate::{Diagnostic, FileCtx, Tier};
use std::collections::BTreeSet;

/// Methods whose iteration order is the hash map's internal order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Identifiers whose presence near an unordered iteration makes it
/// deterministic: an explicit sort, or re-collection into an ordered
/// structure.
pub(crate) const ORDERING_IDENTS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// Chain terminals whose result does not depend on iteration order
/// (for `sum`/`product` only with an integer turbofish — FP addition is
/// not associative).
const ORDER_FREE_TERMINALS: &[&str] = &["count", "any", "all", "len", "is_empty"];

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// How many lines past the end of the enclosing statement (or loop
/// body) an ordering operation still counts as "adjacent"
/// (collect-then-sort spans a few lines).
const SORT_WINDOW: u32 = 5;

/// Line where the construct containing token `start` ends: the `;`
/// closing the statement, the matching `}` of a body opened at depth 0,
/// or the close of the enclosing group.
fn construct_end_line(toks: &[Token], start: usize) -> u32 {
    let mut depth = 0i32;
    let mut j = start;
    let mut last_line = toks[start].line;
    while let Some(t) = toks.get(j) {
        last_line = t.line;
        match t.kind {
            TokKind::Open(Delim::Brace) if depth == 0 => {
                // A body (for/if/match) — run to its matching close.
                let mut d = 0i32;
                while let Some(b) = toks.get(j) {
                    match b.kind {
                        TokKind::Open(_) => d += 1,
                        TokKind::Close(_) => {
                            d -= 1;
                            if d == 0 {
                                return b.line;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return last_line;
            }
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => {
                if depth == 0 {
                    return last_line;
                }
                depth -= 1;
            }
            TokKind::Punct if depth == 0 && t.text == ";" => return t.line,
            _ => {}
        }
        j += 1;
    }
    last_line
}

/// rule `unordered-iteration` (deny): iterating a `HashMap`/`HashSet`
/// in non-test code of an analytical crate, without an adjacent
/// ordering operation, an order-free terminal, or an allow pragma.
///
/// Hash-typed names are tracked per file, flow-insensitively: a binding
/// or parameter annotated `HashMap<..>`/`HashSet<..>`, or initialized
/// from `HashMap::`/`HashSet::` constructors.
pub fn unordered_iteration(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "unordered-iteration";
    if !ctx.meta.analytical {
        return;
    }
    let toks = &ctx.tokens;
    let hash_idents = collect_hash_idents(toks);
    let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();

    let mut flag = |ctx: &FileCtx, i: usize, tok: &Token, what: &str, out: &mut Vec<Diagnostic>| {
        let window_end = construct_end_line(toks, i) + SORT_WINDOW;
        if ctx.in_test_code(i)
            || ctx.allowed(RULE, tok.line)
            || flagged_lines.contains(&tok.line)
            || ctx.window_has_ident(tok.line, window_end, ORDERING_IDENTS)
        {
            return;
        }
        flagged_lines.insert(tok.line);
        out.push(ctx.diag(
            RULE,
            Tier::Deny,
            tok,
            format!(
                "{what} iterates a hash collection in iteration order; sort the output, \
                 re-collect into a BTreeMap/BTreeSet, or justify with \
                 `// ets-lint: allow(unordered-iteration)`"
            ),
        ));
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // `for PAT in <head> {` where <head> mentions a hash-typed name.
        if t.is_ident("for") && !toks.get(i + 1).is_some_and(|n| n.is_punct("<")) {
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut in_kw = None;
            while let Some(n) = toks.get(j) {
                match n.kind {
                    TokKind::Open(_) => depth += 1,
                    TokKind::Close(_) => depth -= 1,
                    TokKind::Ident if depth == 0 && n.text == "in" => {
                        in_kw = Some(j);
                        break;
                    }
                    // `impl Trait for Type {` has no `in`; stop at `{`.
                    TokKind::Punct if depth == 0 && (n.text == ";" || n.text == "{") => break,
                    _ => {}
                }
                if n.kind == TokKind::Open(Delim::Brace) && depth == 1 {
                    break;
                }
                j += 1;
            }
            if let Some(start) = in_kw {
                let mut k = start + 1;
                let mut depth = 0i32;
                let mut body_open = None;
                let mut hash_hits: Vec<usize> = Vec::new();
                while let Some(n) = toks.get(k) {
                    match n.kind {
                        TokKind::Open(Delim::Brace) if depth == 0 => {
                            body_open = Some(k);
                            break;
                        }
                        TokKind::Open(_) => depth += 1,
                        TokKind::Close(_) => depth -= 1,
                        // Skip when the loop head itself re-collects or
                        // the chain ends order-free.
                        TokKind::Ident
                            if hash_idents.contains(n.text.as_str())
                                && !chain_is_order_free(toks, k) =>
                        {
                            hash_hits.push(k);
                        }
                        _ => {}
                    }
                    k += 1;
                }
                // A body made solely of commutative entry-folds
                // (`*map.entry(k).or_insert(0) += v;`) is order-free:
                // integer addition keyed by the entry commutes across
                // the iteration order.
                let exempt = body_open.is_some_and(|b| body_is_commutative_entry_fold(toks, b));
                if !exempt {
                    for h in hash_hits {
                        flag(ctx, h, &toks[h], "for-loop head", out);
                    }
                }
                i = k;
                continue;
            }
        }
        // `name.iter()` / `.keys()` / ... on a tracked hash name.
        if t.kind == TokKind::Ident
            && hash_idents.contains(t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("."))
            && toks.get(i + 2).is_some_and(|n| {
                n.kind == TokKind::Ident && HASH_ITER_METHODS.contains(&n.text.as_str())
            })
            && toks
                .get(i + 3)
                .is_some_and(|n| n.kind == TokKind::Open(Delim::Paren))
            && !chain_is_order_free(toks, i)
        {
            let method = toks[i + 2].text.clone();
            flag(ctx, i, t, &format!("`{}.{method}()`", t.text), out);
        }
        i += 1;
    }
}

/// True if the brace group at `open` consists solely of commutative
/// entry-fold statements — `*map.entry(k).or_insert(0) += v;` — i.e.
/// every `;`-terminated statement routes exactly one integer `+=`
/// through an `entry(..).or_insert(..)/or_default()` chain, with no
/// float operands and no other assignment. Folding such a body over a
/// hash iteration is iteration-order-free.
fn body_is_commutative_entry_fold(toks: &[Token], open: usize) -> bool {
    let mut depth = 0i32;
    let mut close = open;
    while let Some(t) = toks.get(close) {
        match t.kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        close += 1;
    }
    if close >= toks.len() || close <= open + 1 {
        return false;
    }
    let mut stmt_start = open + 1;
    let mut saw_stmt = false;
    let mut d = 0i32;
    for j in open + 1..close {
        match toks[j].kind {
            TokKind::Open(_) => d += 1,
            TokKind::Close(_) => d -= 1,
            TokKind::Punct if d == 0 && toks[j].text == ";" => {
                if !stmt_is_entry_fold(&toks[stmt_start..j]) {
                    return false;
                }
                saw_stmt = true;
                stmt_start = j + 1;
            }
            _ => {}
        }
    }
    // A trailing expression (no `;`) disqualifies the body.
    saw_stmt && stmt_start == close
}

fn stmt_is_entry_fold(stmt: &[Token]) -> bool {
    let mut plus_eq = 0usize;
    let mut has_entry = false;
    let mut has_or = false;
    for t in stmt {
        match t.kind {
            TokKind::Ident if t.text == "entry" => has_entry = true,
            TokKind::Ident if t.text == "or_insert" || t.text == "or_default" => has_or = true,
            TokKind::Ident if t.text == "f32" || t.text == "f64" => return false,
            TokKind::Number if is_float_literal(&t.text) => return false,
            TokKind::Punct if t.text == "+=" => plus_eq += 1,
            TokKind::Punct
                if matches!(
                    t.text.as_str(),
                    "=" | "-=" | "*=" | "/=" | "%=" | "|=" | "&=" | "^=" | "<<=" | ">>="
                ) =>
            {
                return false;
            }
            _ => {}
        }
    }
    has_entry && has_or && plus_eq == 1
}

/// Collects names bound or annotated as `HashMap`/`HashSet` anywhere in
/// the file (locals, params, struct fields — flow-insensitive).
fn collect_hash_idents(toks: &[Token]) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk left over `&`/`mut`/lifetimes and any qualifying path
        // segments (`std :: collections ::`) so both `m: &HashMap<..>`
        // and `m: &std::collections::HashMap<..>` resolve to `m`.
        let mut j = i;
        loop {
            if j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokKind::Ident {
                j -= 2;
            } else if j > 0
                && (toks[j - 1].is_punct("&")
                    || toks[j - 1].is_ident("mut")
                    || toks[j - 1].kind == TokKind::Lifetime)
            {
                j -= 1;
            } else {
                break;
            }
        }
        // Annotation: `name : [& mut 'a path::] HashMap`.
        if j >= 2 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokKind::Ident {
            names.insert(toks[j - 2].text.as_str());
            continue;
        }
        // Initializer: `name = [path::] HashMap::ctor(..)`.
        if j >= 2
            && toks[j - 1].is_punct("=")
            && toks[j - 2].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
        {
            names.insert(toks[j - 2].text.as_str());
        }
    }
    names
}

/// Starting at the receiver token index, walks a `.method(args)` chain
/// and returns true if it terminates order-free: an [`ORDER_FREE_TERMINALS`]
/// call, `sum::<int>()`/`product::<int>()`, `min()`/`max()`, a
/// `collect` straight into a hash/btree collection (visible as a
/// turbofish or a nearby annotation is handled by the sort window), or
/// `extend`ing another hash collection.
fn chain_is_order_free(toks: &[Token], recv: usize) -> bool {
    let mut i = recv + 1;
    loop {
        if !toks.get(i).is_some_and(|t| t.is_punct(".")) {
            return false;
        }
        let Some(m) = toks.get(i + 1) else {
            return false;
        };
        if m.kind != TokKind::Ident {
            return false;
        }
        let name = m.text.as_str();
        // Position after the method name: turbofish or arg list.
        let mut j = i + 2;
        let mut turbofish: Vec<&str> = Vec::new();
        if toks.get(j).is_some_and(|t| t.is_punct("::")) {
            // Collect idents inside `::< ... >`.
            let mut depth = 0i32;
            j += 1;
            while let Some(t) = toks.get(j) {
                match t.kind {
                    TokKind::Punct if t.text == "<" => depth += 1,
                    TokKind::Punct if t.text == ">" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    TokKind::Ident => turbofish.push(t.text.as_str()),
                    _ => {}
                }
                j += 1;
            }
        }
        match name {
            _ if ORDER_FREE_TERMINALS.contains(&name) => return true,
            "min" | "max" => return true,
            "sum" | "product" => {
                return turbofish.iter().any(|t| INT_TYPES.contains(t));
            }
            "collect" => {
                return turbofish
                    .iter()
                    .any(|t| matches!(*t, "HashMap" | "HashSet" | "BTreeMap" | "BTreeSet"));
            }
            "contains" | "contains_key" | "get" | "insert" | "extend" => return true,
            _ => {}
        }
        // Skip the argument group and continue down the chain.
        if !toks
            .get(j)
            .is_some_and(|t| t.kind == TokKind::Open(Delim::Paren))
        {
            return false;
        }
        let mut depth = 0i32;
        while let Some(t) = toks.get(j) {
            match t.kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// rule `nondeterministic-source` (deny): wall-clock or entropy reads
/// outside the timing-only allowlist. Timing-allowed files may read the
/// clock; nothing in the workspace may touch OS entropy.
pub fn nondeterministic_source(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "nondeterministic-source";
    if ctx.meta.timing_allowed {
        return;
    }
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "Instant" => {
                toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|n| n.is_ident("now"))
            }
            "SystemTime" | "thread_rng" | "RandomState" | "from_entropy" => true,
            _ => false,
        };
        if hit && !ctx.allowed(RULE, t.line) {
            out.push(ctx.diag(
                RULE,
                Tier::Deny,
                t,
                format!(
                    "`{}` is a nondeterministic source; analytical paths must draw from \
                     seeded `ChaCha8Rng` streams (`ets_parallel::derive_rng`) and never \
                     read the wall clock",
                    t.text
                ),
            ));
        }
    }
}

/// Fan-out entry points of `ets-parallel`. Work inside these closures
/// runs chunked, and *chunk boundaries depend on the worker count* —
/// so any floating-point reduction crossing items inside them is
/// thread-count-dependent even though results merge in order.
const PAR_CALLS: &[&str] = &["par_map", "par_map_index"];

/// rule `float-reduction-order` (deny): float accumulation (`+=`/`-=`/
/// `*=` with a float hint, or `sum::<f64>()`/`product::<f64>()`) inside
/// an `ets-parallel` fan-out call. The sanctioned pattern is
/// parallel-compute / sequential-commit: `par_map` per-item values,
/// then reduce sequentially outside the fan-out.
pub fn float_reduction_order(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "float-reduction-order";
    let toks = &ctx.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || !PAR_CALLS.contains(&t.text.as_str())
            || !toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Open(Delim::Paren))
        {
            i += 1;
            continue;
        }
        // Find the matching close of the argument group.
        let open = i + 1;
        let mut depth = 0i32;
        let mut close = open;
        while let Some(n) = toks.get(close) {
            match n.kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        for j in open + 1..close {
            let n = &toks[j];
            let is_float_acc = n.kind == TokKind::Punct
                && matches!(n.text.as_str(), "+=" | "-=" | "*=")
                && statement_has_float_hint(toks, j, open, close);
            let is_float_sum = n.kind == TokKind::Ident
                && matches!(n.text.as_str(), "sum" | "product")
                && turbofish_has_float(toks, j + 1);
            if (is_float_acc || is_float_sum) && !ctx.in_test_code(j) && !ctx.allowed(RULE, n.line)
            {
                out.push(ctx.diag(
                    RULE,
                    Tier::Deny,
                    n,
                    format!(
                        "floating-point accumulation inside `{}` fan-out: chunk boundaries \
                         depend on the worker count, so FP reduction here is thread-dependent; \
                         par_map the per-item values and reduce sequentially after the join",
                        t.text
                    ),
                ));
            }
        }
        i = close + 1;
    }
}

/// Index of the first token of the statement containing `at`: walks
/// backward to the nearest `;` / `{` at the same nesting level (never
/// crossing below `lo`) and returns the index just past it. A `}` at
/// the same level also ends the search — in statement position a block
/// (`if`/`for`/`match` statement) terminates the preceding statement;
/// the rare expression-position block receiver (`match e { .. }.f()`)
/// merely shortens the range, which is the conservative direction.
pub(crate) fn stmt_start_before(toks: &[Token], at: usize, lo: usize) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while i > lo {
        let t = &toks[i - 1];
        match t.kind {
            TokKind::Close(Delim::Brace) if depth == 0 => return i,
            TokKind::Close(_) => depth += 1,
            TokKind::Open(_) => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            TokKind::Punct if depth == 0 && t.text == ";" => return i,
            _ => {}
        }
        i -= 1;
    }
    lo
}

/// Looks for a float hint (an `f32`/`f64` ident, a float literal, or
/// `as f64`) in the statement containing token `at`, bounded to the
/// enclosing fan-out argument group.
pub(crate) fn statement_has_float_hint(toks: &[Token], at: usize, lo: usize, hi: usize) -> bool {
    let mut start = at;
    while start > lo {
        let t = &toks[start - 1];
        if t.is_punct(";") || t.kind == TokKind::Open(Delim::Brace) {
            break;
        }
        start -= 1;
    }
    let mut end = at;
    while end < hi {
        if toks[end].is_punct(";") {
            break;
        }
        end += 1;
    }
    toks[start..end].iter().any(|t| {
        (t.kind == TokKind::Ident && (t.text == "f64" || t.text == "f32"))
            || (t.kind == TokKind::Number && is_float_literal(&t.text))
    })
}

fn turbofish_has_float(toks: &[Token], at: usize) -> bool {
    if !toks.get(at).is_some_and(|t| t.is_punct("::")) {
        return false;
    }
    let mut j = at + 1;
    let mut depth = 0i32;
    while let Some(t) = toks.get(j) {
        match t.kind {
            TokKind::Punct if t.text == "<" => depth += 1,
            TokKind::Punct if t.text == ">" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            TokKind::Ident if t.text == "f64" || t.text == "f32" => return true,
            TokKind::Open(Delim::Paren) => return false,
            _ => {}
        }
        j += 1;
    }
    false
}

/// rule `panic-in-library` (warn): `unwrap()` / `expect()` / `panic!` /
/// `unreachable!` in library crates outside tests and `const` items.
/// Warn-tier: counted against `crates/lint/panic_budget.json` so the
/// existing debt ratchets down instead of being grandfathered forever.
pub fn panic_in_library(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "panic-in-library";
    if !ctx.meta.library {
        return;
    }
    let toks = &ctx.tokens;
    let const_ranges = find_const_ranges(toks);
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "unwrap" | "expect" => {
                i > 0
                    && toks[i - 1].is_punct(".")
                    && toks
                        .get(i + 1)
                        .is_some_and(|n| n.kind == TokKind::Open(Delim::Paren))
            }
            "panic" | "unreachable" => toks.get(i + 1).is_some_and(|n| n.is_punct("!")),
            _ => false,
        };
        if !hit
            || ctx.in_test_code(i)
            || ctx.allowed(RULE, t.line)
            || const_ranges.iter().any(|&(s, e)| i > s && i < e)
        {
            continue;
        }
        out.push(ctx.diag(
            RULE,
            Tier::Warn,
            t,
            format!(
                "`{}` in library code can abort a long measurement run; prefer a Result or \
                 a documented invariant (counted against panic_budget.json)",
                t.text
            ),
        ));
    }
}

/// Token ranges of `const`/`static` item initializers (between the `=`
/// and the terminating `;`): build-time assertions there are legitimate
/// panic sites. `const fn` bodies are runtime code and not included.
fn find_const_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if !(t.kind == TokKind::Ident && (t.text == "const" || t.text == "static"))
            || toks.get(i + 1).is_some_and(|n| n.is_ident("fn"))
        {
            i += 1;
            continue;
        }
        // Find the `=` starting the initializer (bail at `;`/`{`: a
        // declaration without one, or something that wasn't an item).
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut eq = None;
        while let Some(n) = toks.get(j) {
            match n.kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                TokKind::Punct if depth == 0 && n.text == "=" => {
                    eq = Some(j);
                    break;
                }
                TokKind::Punct if depth == 0 && n.text == ";" => break,
                _ => {}
            }
            if depth < 0 {
                break;
            }
            j += 1;
        }
        let Some(eq) = eq else {
            i = j + 1;
            continue;
        };
        // Initializer runs to the `;` at depth 0.
        let mut k = eq + 1;
        let mut depth = 0i32;
        while let Some(n) = toks.get(k) {
            match n.kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                TokKind::Punct if depth == 0 && n.text == ";" => break,
                _ => {}
            }
            if depth < 0 {
                break;
            }
            k += 1;
        }
        ranges.push((eq, k));
        i = k + 1;
    }
    ranges
}

/// rule `crate-hygiene` (deny): every crate root (`lib.rs` / `main.rs`)
/// must carry `#![forbid(unsafe_code)]`.
pub fn crate_hygiene(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "crate-hygiene";
    if !ctx.meta.is_crate_root {
        return;
    }
    let toks = &ctx.tokens;
    let has = (0..toks.len()).any(|i| {
        toks[i].is_ident("forbid")
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Open(Delim::Paren))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("unsafe_code"))
    });
    if !has {
        out.push(Diagnostic {
            rule: RULE,
            tier: Tier::Deny,
            file: ctx.meta.display_path.clone(),
            line: 1,
            col: 1,
            message: format!(
                "crate root of `{}` lacks `#![forbid(unsafe_code)]`",
                ctx.meta.crate_name
            ),
        });
    }
}
