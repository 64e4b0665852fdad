//! Recursive-descent layer over [`crate::lexer`]: builds the
//! delimiter [`crate::ast::Tree`] and derives the fn / closure /
//! call tables of [`crate::ast::Ast`].
//!
//! This is a *structural* parser, not a grammar: it matches delimiters
//! exactly (mismatches are recorded as [`ParseError`]s — compiling Rust
//! never produces one, which the workspace self-parse test pins) and
//! recognizes the three shapes the syntax-aware rules need — `fn`
//! items, closure literals, call expressions — with tolerant scanning
//! for everything in between. Anything it cannot classify it simply
//! skips; a lint front end must never reject weird-but-compiling input.

use crate::ast::{Ast, CallInfo, ClosureInfo, FnInfo, ParseError, Tree};
use crate::lexer::{Delim, TokKind, Token};

/// Keywords that look like callees when followed by `(` but are not.
const STMT_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "move", "fn", "let", "mut", "ref",
    "impl", "pub", "use", "mod", "as", "else", "break", "continue", "where", "unsafe", "dyn",
];

/// Pattern keywords that are not bound names.
const PATTERN_KEYWORDS: &[&str] = &["mut", "ref", "box", "_"];

/// Parses a token stream into the structural [`Ast`].
pub fn parse(tokens: &[Token]) -> Ast {
    let mut ast = Ast::default();
    let match_of = build_matches(tokens, &mut ast.errors);
    ast.roots = build_tree(tokens, &match_of);
    collect_fns(tokens, &match_of, &mut ast.fns);
    collect_closures(tokens, &match_of, &mut ast.closures);
    collect_calls(tokens, &match_of, &mut ast.calls);
    // A closure's locals include the params of every closure nested in
    // its body (their bodies are subranges, so let/for/mut bindings are
    // already covered by the flat body scan).
    for outer in 0..ast.closures.len() {
        let (s, e) = ast.closures[outer].body;
        let nested: Vec<String> = ast.closures[outer + 1..]
            .iter()
            .filter(|c| c.head >= s && c.head < e)
            .flat_map(|c| c.params.iter().cloned())
            .collect();
        ast.closures[outer].locals.extend(nested);
    }
    ast
}

/// For every delimiter token, the index of its partner. Unmatched
/// delimiters map to `usize::MAX` and record a [`ParseError`].
fn build_matches(tokens: &[Token], errors: &mut Vec<ParseError>) -> Vec<usize> {
    let mut match_of = vec![usize::MAX; tokens.len()];
    let mut stack: Vec<(usize, Delim)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::Open(d) => stack.push((i, d)),
            TokKind::Close(d) => match stack.pop() {
                Some((open, od)) if od == d => {
                    match_of[open] = i;
                    match_of[i] = open;
                }
                Some((open, od)) => {
                    errors.push(ParseError {
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "mismatched delimiter: `{}` closes `{}` opened at line {}",
                            t.text, tokens[open].text, tokens[open].line
                        ),
                    });
                    // Re-pair anyway so downstream scans stay bounded.
                    match_of[open] = i;
                    match_of[i] = open;
                    let _ = od;
                }
                None => errors.push(ParseError {
                    line: t.line,
                    col: t.col,
                    message: format!("unmatched closing `{}`", t.text),
                }),
            },
            _ => {}
        }
    }
    for (open, _) in stack {
        errors.push(ParseError {
            line: tokens[open].line,
            col: tokens[open].col,
            message: format!("unclosed `{}`", tokens[open].text),
        });
    }
    match_of
}

/// Builds the nested tree from the match table.
fn build_tree(tokens: &[Token], match_of: &[usize]) -> Vec<Tree> {
    fn build_range(tokens: &[Token], match_of: &[usize], lo: usize, hi: usize) -> Vec<Tree> {
        let mut out = Vec::new();
        let mut i = lo;
        while i < hi {
            match tokens[i].kind {
                TokKind::Open(d) => {
                    let close = match_of[i];
                    if close != usize::MAX && close < hi {
                        out.push(Tree::Group {
                            delim: d,
                            open: i,
                            close: Some(close),
                            children: build_range(tokens, match_of, i + 1, close),
                        });
                        i = close + 1;
                    } else {
                        out.push(Tree::Group {
                            delim: d,
                            open: i,
                            close: None,
                            children: build_range(tokens, match_of, i + 1, hi),
                        });
                        i = hi;
                    }
                }
                _ => {
                    out.push(Tree::Leaf(i));
                    i += 1;
                }
            }
        }
        out
    }
    build_range(tokens, match_of, 0, tokens.len())
}

/// Index one past a delimiter group opened at `open` (falls back to
/// `open + 1` on an unmatched open so scans always make progress).
fn past_group(match_of: &[usize], open: usize) -> usize {
    let close = match_of[open];
    if close == usize::MAX {
        open + 1
    } else {
        close + 1
    }
}

/// Skips a generic parameter list starting at a `<` token. Counts `<` /
/// `>` with `<<` / `>>` worth two (the lexer max-munches nested
/// closers), ignoring `->`. Returns the index one past the closing `>`.
fn skip_angles(tokens: &[Token], at: usize) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while let Some(t) = tokens.get(i) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
            if depth <= 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Collects the pattern-side identifiers of one comma-separated
/// parameter: everything before the top-level `:` (the whole range when
/// there is no annotation, e.g. `self`).
fn pattern_idents(
    tokens: &[Token],
    match_of: &[usize],
    lo: usize,
    hi: usize,
    out: &mut Vec<String>,
) {
    let mut i = lo;
    while i < hi {
        let t = &tokens[i];
        match t.kind {
            TokKind::Punct if t.text == ":" => return,
            TokKind::Open(_) => {
                // Tuple / struct patterns: recurse into the group.
                let close = match_of[i].min(hi);
                if close != usize::MAX && close > i {
                    pattern_idents(tokens, match_of, i + 1, close.min(hi), out);
                    i = close;
                } // else fall through; unmatched opens end the file
            }
            TokKind::Ident if !PATTERN_KEYWORDS.contains(&t.text.as_str()) => {
                out.push(t.text.clone());
            }
            _ => {}
        }
        i += 1;
    }
}

/// Splits `[lo, hi)` at top-level commas, returning non-empty
/// `[start, end)` ranges. A closure's parameter list is not top level:
/// in `f(a, |x, y| x + y, b)` the comma between `x` and `y` belongs to
/// the closure, so the call has three arguments, not four.
fn split_args(tokens: &[Token], match_of: &[usize], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = lo;
    let mut i = lo;
    while i < hi {
        if i == start {
            let body = past_closure_params(tokens, match_of, i, hi);
            if body > i {
                i = body;
                continue;
            }
        }
        match tokens[i].kind {
            TokKind::Open(_) => {
                i = past_group(match_of, i);
                continue;
            }
            TokKind::Punct if tokens[i].text == "," => {
                if i > start {
                    out.push((start, i));
                }
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if hi > start {
        out.push((start, hi));
    }
    out
}

/// If a closure parameter list `|...|` (after an optional `move`)
/// starts at `at`, the index one past its closing `|`; otherwise `at`.
fn past_closure_params(tokens: &[Token], match_of: &[usize], at: usize, hi: usize) -> usize {
    let mut i = at + usize::from(tokens[at].is_ident("move"));
    if i >= hi || !tokens[i].is_punct("|") {
        return at;
    }
    i += 1;
    while i < hi {
        match tokens[i].kind {
            TokKind::Open(_) => {
                i = past_group(match_of, i);
                continue;
            }
            TokKind::Punct if tokens[i].text == "|" => return i + 1,
            _ => {}
        }
        i += 1;
    }
    at
}

fn collect_fns(tokens: &[Token], match_of: &[usize], out: &mut Vec<FnInfo>) {
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        // `fn(..)` pointer types have no name; skip them.
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name_idx = i + 1;
        let mut j = i + 2;
        if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
            j = skip_angles(tokens, j);
        }
        if !tokens
            .get(j)
            .is_some_and(|t| t.kind == TokKind::Open(Delim::Paren))
        {
            i += 1;
            continue;
        }
        let params_open = j;
        let params_close = match_of[params_open];
        if params_close == usize::MAX {
            break;
        }
        let mut params = Vec::new();
        for (s, e) in split_args(tokens, match_of, params_open + 1, params_close) {
            pattern_idents(tokens, match_of, s, e, &mut params);
        }
        // Return type: `-> tokens...` until `{` / `;` / `where`.
        let mut k = params_close + 1;
        let mut ret = String::new();
        if tokens.get(k).is_some_and(|t| t.is_punct("->")) {
            k += 1;
            let mut parts: Vec<&str> = Vec::new();
            while let Some(t) = tokens.get(k) {
                match t.kind {
                    TokKind::Open(Delim::Brace) => break,
                    TokKind::Punct if t.text == ";" => break,
                    TokKind::Ident if t.text == "where" => break,
                    TokKind::Open(_) => {
                        // Flatten grouped return types (`-> (A, B)`,
                        // `-> impl Fn(X)`) token by token.
                        parts.push(&t.text);
                        k += 1;
                        continue;
                    }
                    _ => parts.push(&t.text),
                }
                k += 1;
            }
            ret = parts.join(" ");
        }
        // Skip a where clause to the body / terminator.
        let mut depth = 0i32;
        let mut body = None;
        while let Some(t) = tokens.get(k) {
            match t.kind {
                TokKind::Open(Delim::Brace) if depth == 0 => {
                    body = Some((k, past_group(match_of, k)));
                    break;
                }
                TokKind::Punct if depth == 0 && t.text == ";" => break,
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => {
                    if depth == 0 {
                        break; // malformed; bail out of this item
                    }
                    depth -= 1;
                }
                _ => {}
            }
            k += 1;
        }
        out.push(FnInfo {
            name: name_tok.text.clone(),
            name_idx,
            params,
            ret,
            body,
        });
        i = name_idx + 1;
    }
}

/// True if a `|` / `||` at `i` sits in expression position (a closure
/// head) rather than being a binary operator or or-pattern separator.
fn is_closure_head(tokens: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) else {
        return true;
    };
    match prev.kind {
        TokKind::Open(_) => true,
        TokKind::Punct => matches!(prev.text.as_str(), "," | ";" | "=" | "=>" | ":"),
        TokKind::Ident => matches!(
            prev.text.as_str(),
            "move" | "return" | "else" | "in" | "break"
        ),
        _ => false,
    }
}

fn collect_closures(tokens: &[Token], match_of: &[usize], out: &mut Vec<ClosureInfo>) {
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        let is_pipe = t.is_punct("|");
        let is_pipepipe = t.is_punct("||");
        if !(is_pipe || is_pipepipe) || !is_closure_head(tokens, i) {
            i += 1;
            continue;
        }
        let head = i;
        let mut params = Vec::new();
        let mut after_params = i + 1;
        if is_pipe {
            // Find the closing `|` at top level, skipping groups.
            let mut j = i + 1;
            let mut close = None;
            while let Some(t) = tokens.get(j) {
                match t.kind {
                    TokKind::Open(_) => {
                        j = past_group(match_of, j);
                        continue;
                    }
                    TokKind::Close(_) => break, // left the enclosing group: not a closure
                    TokKind::Punct if t.text == "|" => {
                        close = Some(j);
                        break;
                    }
                    TokKind::Punct if t.text == ";" => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(close) = close else {
                i += 1;
                continue;
            };
            for (s, e) in split_args(tokens, match_of, i + 1, close) {
                pattern_idents(tokens, match_of, s, e, &mut params);
            }
            after_params = close + 1;
        }
        // Optional `-> Type` (requires a block body).
        let mut b = after_params;
        if tokens.get(b).is_some_and(|t| t.is_punct("->")) {
            while let Some(t) = tokens.get(b) {
                if t.kind == TokKind::Open(Delim::Brace) {
                    break;
                }
                b += 1;
            }
        }
        let Some(body_start_tok) = tokens.get(b) else {
            break;
        };
        let body = if body_start_tok.kind == TokKind::Open(Delim::Brace) {
            (b, past_group(match_of, b))
        } else {
            // Expression body: runs to the `,` / `;` / enclosing close.
            let mut e = b;
            while let Some(t) = tokens.get(e) {
                match t.kind {
                    TokKind::Open(_) => {
                        e = past_group(match_of, e);
                        continue;
                    }
                    TokKind::Close(_) => break,
                    TokKind::Punct if t.text == "," || t.text == ";" => break,
                    _ => {}
                }
                e += 1;
            }
            (b, e)
        };
        let locals = body_locals(tokens, match_of, body.0, body.1);
        out.push(ClosureInfo {
            head,
            params,
            body,
            locals,
        });
        i = after_params;
    }
}

/// Names bound inside a body range: `let` / `if let` / `while let`
/// patterns, `for` patterns, match-arm patterns (idents left of `=>`),
/// and `mut x` pattern bindings anywhere. Flow-insensitive and
/// deliberately over-approximate — treating a binding as local can only
/// *suppress* a mutation finding, and immutable bindings cannot be
/// assigned in compiling code anyway.
fn body_locals(tokens: &[Token], match_of: &[usize], lo: usize, hi: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        let t = &tokens[i];
        // Match-arm pattern: collect idents back to the arm start —
        // the `,` after the previous arm, the `}` of its block body, or
        // the opening brace of the match itself. Paren/bracket
        // sub-patterns (`Vacant(e)`, `[a, b]`) are jumped over and then
        // mined with `pattern_idents`; guards (`Some(x) if cond =>`)
        // contribute their idents too — harmless over-approximation.
        if t.is_punct("=>") {
            let mut k = i;
            let mut groups: Vec<usize> = Vec::new();
            while k > lo {
                let p = k - 1;
                match tokens[p].kind {
                    // `}` ends the previous arm's block body (struct
                    // patterns are cut here too — acceptable: missing a
                    // binding can only over-report, never suppress).
                    TokKind::Close(Delim::Brace) => break,
                    TokKind::Close(_) => {
                        let open = match_of[p];
                        if open == usize::MAX || open < lo {
                            break;
                        }
                        groups.push(open);
                        k = open;
                    }
                    TokKind::Open(_) => break,
                    TokKind::Punct if tokens[p].text == "," => break,
                    TokKind::Ident if !PATTERN_KEYWORDS.contains(&tokens[p].text.as_str()) => {
                        out.push(tokens[p].text.clone());
                        k = p;
                    }
                    _ => k = p,
                }
            }
            for open in groups {
                let close = past_group(match_of, open);
                pattern_idents(
                    tokens,
                    match_of,
                    open + 1,
                    close.saturating_sub(1),
                    &mut out,
                );
            }
            i += 1;
            continue;
        }
        if t.is_ident("let") {
            // Pattern runs to the `=` / `:` / `;` at this level.
            let mut j = i + 1;
            while j < hi {
                match tokens[j].kind {
                    TokKind::Open(_) => {
                        // Group in a pattern: collect inside it too.
                        let close = past_group(match_of, j);
                        pattern_idents(tokens, match_of, j + 1, close.saturating_sub(1), &mut out);
                        j = close;
                        continue;
                    }
                    TokKind::Punct if matches!(tokens[j].text.as_str(), "=" | ":" | ";") => break,
                    TokKind::Ident if !PATTERN_KEYWORDS.contains(&tokens[j].text.as_str()) => {
                        out.push(tokens[j].text.clone());
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j;
            continue;
        }
        if t.is_ident("for") {
            let mut j = i + 1;
            while j < hi && !tokens[j].is_ident("in") {
                if tokens[j].kind == TokKind::Ident
                    && !PATTERN_KEYWORDS.contains(&tokens[j].text.as_str())
                {
                    out.push(tokens[j].text.clone());
                }
                j += 1;
            }
            i = j;
            continue;
        }
        // `mut x` pattern binding (match arms, fn-less contexts); `&mut`
        // is a borrow, not a binding.
        if t.is_ident("mut")
            && tokens.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
            && !(i > 0 && tokens[i - 1].is_punct("&"))
        {
            out.push(tokens[i + 1].text.clone());
        }
        i += 1;
    }
    out
}

fn collect_calls(tokens: &[Token], match_of: &[usize], out: &mut Vec<CallInfo>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokKind::Ident || STMT_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // `fn name(...)` is a definition, not a call.
        if i > 0 && tokens[i - 1].is_ident("fn") {
            continue;
        }
        // Direct `name(` or turbofish `name::<T>(`.
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|n| n.is_punct("::"))
            && tokens.get(j + 1).is_some_and(|n| n.is_punct("<"))
        {
            j = skip_angles(tokens, j + 1);
        }
        if !tokens
            .get(j)
            .is_some_and(|n| n.kind == TokKind::Open(Delim::Paren))
        {
            continue;
        }
        let open = j;
        let close = match_of[open];
        if close == usize::MAX {
            continue;
        }
        out.push(CallInfo {
            callee: t.text.clone(),
            callee_idx: i,
            open,
            end: close + 1,
            args: split_args(tokens, match_of, open + 1, close),
            method: i > 0 && tokens[i - 1].is_punct("."),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{fanout_closures, Phase};
    use crate::lexer::lex;

    fn parsed(src: &str) -> Ast {
        parse(&lex(src).tokens)
    }

    #[test]
    fn balanced_tree_no_errors() {
        let ast = parsed("fn f(x: u32) -> u32 { (x + [1, 2][0]) * 2 }");
        assert!(ast.errors.is_empty(), "{:?}", ast.errors);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "f");
        assert_eq!(ast.fns[0].params, vec!["x"]);
        assert_eq!(ast.fns[0].ret, "u32");
        assert!(ast.fns[0].body.is_some());
    }

    #[test]
    fn mismatched_delimiters_are_errors() {
        assert!(!parsed("fn f() { (]").errors.is_empty());
        assert!(!parsed("fn f() { }}").errors.is_empty());
        assert!(!parsed("fn f() { (").errors.is_empty());
    }

    #[test]
    fn fn_signatures_with_generics_and_where() {
        let ast = parsed(
            "pub fn load<P: AsRef<Path>>(path: P, cfg: &Config) -> Result<World, StoreError> \
             where P: Clone { todo() }",
        );
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].params, vec!["path", "cfg"]);
        assert!(ast.fns[0].ret.contains("Result"));
        assert!(ast.fns[0].ret.contains("StoreError"));
        // Nested-closer generics (`Vec<Vec<u32>>`) must not desync.
        let ast = parsed("fn g<T: Into<Vec<Vec<u32>>>>(v: T) -> bool { true }");
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].ret, "bool");
    }

    #[test]
    fn closures_vs_or_patterns_and_bitor() {
        let ast = parsed(
            "fn f(a: u8, b: u8) { let c = a | b; match c { 1 | 2 => {} _ => {} } \
             let g = |x: u8| x + 1; let h = move || c; }",
        );
        assert_eq!(ast.closures.len(), 2, "{:?}", ast.closures);
        assert_eq!(ast.closures[0].params, vec!["x"]);
        assert!(ast.closures[1].params.is_empty());
    }

    #[test]
    fn closure_bodies_and_locals() {
        let ast = parsed(
            "fn f(items: &[u32]) { items.iter().map(|&(ref a, mut b)| { \
             let (c, d) = (a, b); for e in 0..*a { b += e; } b }); }",
        );
        let c = &ast.closures[0];
        assert!(c.params.contains(&"a".to_string()) && c.params.contains(&"b".to_string()));
        for name in ["c", "d", "e"] {
            assert!(c.binds(name), "missing local {name}: {c:?}");
        }
        assert!(!c.binds("items"));
    }

    #[test]
    fn calls_args_and_methods() {
        let ast = parsed("fn f() { g(1, h(2, 3), 4); v.push(5); s::t::<u8>(6); }");
        let names: Vec<&str> = ast.calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(names.contains(&"g") && names.contains(&"h") && names.contains(&"t"));
        let g = ast.calls.iter().find(|c| c.callee == "g").unwrap();
        assert_eq!(g.args.len(), 3);
        let push = ast.calls.iter().find(|c| c.callee == "push").unwrap();
        assert!(push.method);
    }

    #[test]
    fn fanout_resolution_worker_vs_commit() {
        let ast = parsed(
            "fn f(xs: &[u32]) { \
               let v = par_map(xs, |i, x| x + i); \
               stream_map(xs.len(), |i| xs[i] * 2, |seq, r| { total += r; }); \
               let w = par_map_index(xs.len(), |i| xs[i] * 3); \
             }",
        );
        let fan = fanout_closures(&ast);
        let phases: Vec<(&str, Phase)> = fan.iter().map(|f| (f.call, f.phase)).collect();
        assert_eq!(
            phases,
            vec![
                ("par_map", Phase::Worker),
                ("stream_map", Phase::Worker),
                ("stream_map", Phase::Commit),
                ("par_map_index", Phase::Worker),
            ],
            "{fan:?}"
        );
    }

    #[test]
    fn closure_params_do_not_split_call_arguments() {
        let tokens = lex("f(a, |x, y| x + y, b)").tokens;
        let match_of = build_matches(&tokens, &mut Vec::new());
        let open = 1;
        assert_eq!(
            split_args(&tokens, &match_of, open + 1, match_of[open]).len(),
            3
        );
        // `move` closures and grouped patterns too; `||` has no params.
        let ast = parsed("fn f() { g(move |(i, j), k| i + j + k, || 0, h); }");
        let g = ast.calls.iter().find(|c| c.callee == "g").unwrap();
        assert_eq!(g.args.len(), 3);
    }

    #[test]
    fn nested_closure_params_are_outer_locals() {
        let ast = parsed("fn f() { run(|a| inner.iter().map(|b| a + b).sum::<u32>()); }");
        let outer = &ast.closures[0];
        assert!(outer.binds("a") && outer.binds("b"));
    }
}
