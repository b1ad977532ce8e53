//! Brace-tree / item-level parse on top of the token stream.
//!
//! The token rules (L1–L6) pattern-match flat windows; the scope-aware
//! rules (L8 lock discipline, L9 secret taint) need to know *where* a
//! binding lives and *what* a call's arguments are. This module builds a
//! lightweight IR from the lexed (and `cfg(test)`-stripped) stream:
//!
//! - bracket matching for `()`, `[]`, `{}` across the whole file;
//! - function items with parameter-list and body token spans;
//! - `let` bindings with bound names, initializer span, statement end and
//!   the closing brace of the enclosing block (the binding's drop point);
//! - call expressions (plain, method, `Path::assoc`, and macro bangs)
//!   with argument spans.
//!
//! It is *not* a Rust parser: closures and inner items stay inside their
//! enclosing function's span (which is what an intraprocedural analysis
//! wants — captured locals keep their taint), and a pattern binds its
//! lowercase idents only: the capitalised ones in `let Some(Ok(x)) =` are
//! variants, struct names and path segments, never bindings.

use crate::lexer::{Kind, Token};
use std::collections::HashMap;

/// One `fn` item: spans index into the token stream the model was built
/// from.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the parameter list, exclusive of the parentheses.
    pub params: (usize, usize),
    /// Token range of the body, inclusive of both braces.
    pub body: (usize, usize),
}

/// One `let` binding (or destructuring pattern).
#[derive(Debug, Clone)]
pub struct Binding {
    /// Idents bound by the pattern (variant and type names excluded).
    pub names: Vec<String>,
    /// 1-based line of the `let`.
    pub line: u32,
    /// Token index of the `let` keyword.
    pub let_idx: usize,
    /// Initializer token range (after `=`, before the terminating `;`);
    /// empty for `let x;`.
    pub init: (usize, usize),
    /// Token index of the statement's terminating `;` (the binding is
    /// live *after* this point).
    pub stmt_end: usize,
    /// Token index of the enclosing block's `}` — where the binding drops.
    pub scope_end: usize,
}

/// One call expression.
#[derive(Debug, Clone)]
pub struct Call {
    /// Last path segment / method name / macro name.
    pub callee: String,
    /// `true` for `name!(...)` macro invocations.
    pub is_macro: bool,
    /// For method calls, the last ident of the receiver chain
    /// (`dep.master.lock()` → `master`); `None` for plain calls.
    pub receiver: Option<String>,
    /// For `Seg::callee(...)` paths, the segment before the call
    /// (`Field::from` → `Field`, `dump::dump` → `dump`).
    pub path_prefix: Option<String>,
    /// Token index of the callee ident.
    pub idx: usize,
    /// 1-based line of the callee.
    pub line: u32,
    /// Argument token range, exclusive of the delimiters.
    pub args: (usize, usize),
}

/// The scope model for one file.
#[derive(Debug, Default)]
pub struct ScopeModel {
    /// Open-bracket token index → its matching close index (all of
    /// `()`/`[]`/`{}`).
    pub matches: HashMap<usize, usize>,
    /// Every `fn` item in the file, in source order.
    pub fns: Vec<FnItem>,
    /// Every `let` binding, in source order.
    pub bindings: Vec<Binding>,
    /// Every call expression, in source order.
    pub calls: Vec<Call>,
}

impl ScopeModel {
    /// Build the model from a (stripped) token stream.
    pub fn build(tokens: &[Token]) -> ScopeModel {
        let mut model = ScopeModel { matches: match_brackets(tokens), ..Default::default() };
        model.collect_fns(tokens);
        model.collect_bindings(tokens);
        model.collect_calls(tokens);
        model
    }

    /// Bindings whose `let` lies inside `f`'s body.
    pub fn bindings_in<'a>(&'a self, f: &FnItem) -> impl Iterator<Item = &'a Binding> {
        let (lo, hi) = f.body;
        self.bindings.iter().filter(move |b| b.let_idx > lo && b.let_idx < hi)
    }

    /// Calls whose callee lies inside `f`'s body.
    pub fn calls_in<'a>(&'a self, f: &FnItem) -> impl Iterator<Item = &'a Call> {
        let (lo, hi) = f.body;
        self.calls.iter().filter(move |c| c.idx > lo && c.idx < hi)
    }

    fn collect_fns(&mut self, tokens: &[Token]) {
        let n = tokens.len();
        let mut i = 0;
        while i < n {
            if !(tokens[i].kind == Kind::Ident && tokens[i].text == "fn") {
                i += 1;
                continue;
            }
            // `fn` must be followed by a name; `fn(...)` pointer types are
            // not items.
            let Some(name_tok) = tokens.get(i + 1) else { break };
            if name_tok.kind != Kind::Ident {
                i += 1;
                continue;
            }
            // Skip a generic parameter list `<...>`; `->` inside bounds
            // (`Fn() -> bool`) must not close the angle depth.
            let mut j = i + 2;
            if j < n && tokens[j].text == "<" {
                let mut depth = 1usize;
                j += 1;
                while j < n && depth > 0 {
                    match tokens[j].text.as_str() {
                        "<" => depth += 1,
                        ">" if j > 0 && tokens[j - 1].text != "-" => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
            }
            if j >= n || tokens[j].text != "(" {
                i += 1;
                continue;
            }
            let Some(&params_close) = self.matches.get(&j) else {
                i += 1;
                continue;
            };
            // The body `{` comes before any `;` (a `;` first means a
            // bodiless trait-method signature).
            let mut k = params_close + 1;
            let mut body = None;
            while k < n {
                match tokens[k].text.as_str() {
                    "{" => {
                        body = self.matches.get(&k).map(|&close| (k, close));
                        break;
                    }
                    ";" => break,
                    _ => k += 1,
                }
            }
            if let Some(body) = body {
                self.fns.push(FnItem {
                    name: name_tok.text.clone(),
                    line: tokens[i].line,
                    params: (j + 1, params_close),
                    body,
                });
                // Scan *into* the body: nested fns become their own items.
                i = body.0 + 1;
            } else {
                i = k.max(i + 1);
            }
        }
    }

    fn collect_bindings(&mut self, tokens: &[Token]) {
        let n = tokens.len();
        // Innermost enclosing `{` for any token index, maintained as a
        // stack during one linear scan.
        let mut braces: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < n {
            match tokens[i].text.as_str() {
                "{" => braces.push(i),
                "}" => {
                    braces.pop();
                }
                "let" if tokens[i].kind == Kind::Ident => {
                    let scope_end = braces
                        .last()
                        .and_then(|open| self.matches.get(open).copied())
                        .unwrap_or(n.saturating_sub(1));
                    if let Some(b) = parse_let(tokens, i, scope_end, &self.matches) {
                        let next = b.stmt_end;
                        self.bindings.push(b);
                        i = next;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    fn collect_calls(&mut self, tokens: &[Token]) {
        let n = tokens.len();
        for i in 0..n {
            if tokens[i].kind != Kind::Ident {
                continue;
            }
            // Keywords that syntactically precede `(` are not calls.
            if matches!(tokens[i].text.as_str(), "if" | "while" | "match" | "for" | "return") {
                continue;
            }
            let (is_macro, open_idx) = match tokens.get(i + 1).map(|t| t.text.as_str()) {
                Some("!") if matches!(tokens.get(i + 2).map(|t| t.text.as_str()), Some("(") | Some("[")) => {
                    (true, i + 2)
                }
                Some("(") => (false, i + 1),
                _ => continue,
            };
            let Some(&close) = self.matches.get(&open_idx) else { continue };
            let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
            // `fn name(` is a definition, not a call.
            if prev == Some("fn") {
                continue;
            }
            let receiver = if prev == Some(".") {
                Some(receiver_name(tokens, i - 1, &reverse_matches(&self.matches)))
            } else {
                None
            };
            let path_prefix = if i >= 3
                && tokens[i - 1].text == ":"
                && tokens[i - 2].text == ":"
                && tokens[i - 3].kind == Kind::Ident
            {
                Some(tokens[i - 3].text.clone())
            } else {
                None
            };
            self.calls.push(Call {
                callee: tokens[i].text.clone(),
                is_macro,
                receiver,
                path_prefix,
                idx: i,
                line: tokens[i].line,
                args: (open_idx + 1, close),
            });
        }
    }
}

/// Match all brackets in one pass; unbalanced input degrades gracefully
/// (unmatched opens simply have no entry).
fn match_brackets(tokens: &[Token]) -> HashMap<usize, usize> {
    let mut matches = HashMap::new();
    let mut paren = Vec::new();
    let mut square = Vec::new();
    let mut brace = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" => paren.push(i),
            "[" => square.push(i),
            "{" => brace.push(i),
            ")" => {
                if let Some(open) = paren.pop() {
                    matches.insert(open, i);
                }
            }
            "]" => {
                if let Some(open) = square.pop() {
                    matches.insert(open, i);
                }
            }
            "}" => {
                if let Some(open) = brace.pop() {
                    matches.insert(open, i);
                }
            }
            _ => {}
        }
    }
    matches
}

fn reverse_matches(matches: &HashMap<usize, usize>) -> HashMap<usize, usize> {
    matches.iter().map(|(&open, &close)| (close, open)).collect()
}

/// The last ident of a method receiver chain; `dot_idx` points at the `.`
/// before the method name. `foo(x).m()` and `a[i].m()` hop over the
/// bracket group to the ident before it.
fn receiver_name(
    tokens: &[Token],
    dot_idx: usize,
    close_to_open: &HashMap<usize, usize>,
) -> String {
    let mut r = match dot_idx.checked_sub(1) {
        Some(r) => r,
        None => return "?".to_string(),
    };
    loop {
        match tokens[r].text.as_str() {
            ")" | "]" => {
                let Some(&open) = close_to_open.get(&r) else { return "?".to_string() };
                match open.checked_sub(1) {
                    Some(prev) => r = prev,
                    None => return "?".to_string(),
                }
            }
            _ => break,
        }
    }
    if tokens[r].kind == Kind::Ident {
        tokens[r].text.clone()
    } else {
        "?".to_string()
    }
}

/// Parse one `let` statement starting at `let_idx`.
fn parse_let(
    tokens: &[Token],
    let_idx: usize,
    scope_end: usize,
    matches: &HashMap<usize, usize>,
) -> Option<Binding> {
    let n = tokens.len();
    // Find the top-level `=` (assignment, not `==`/`=>`), tracking bracket
    // depth so `let x = if c { a } else { b };` and tuple patterns nest.
    let mut depth = 0i32;
    let mut eq = None;
    let mut colon = None;
    let mut j = let_idx + 1;
    while j < n {
        let t = &tokens[j];
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return None; // `let` ran off its block: malformed
                }
            }
            ":" if depth == 0 && colon.is_none() => colon = Some(j),
            "=" if depth == 0
                && t.kind == Kind::Punct
                && tokens.get(j + 1).map(|t| t.text.as_str()) != Some(">") =>
            {
                eq = Some(j);
                break;
            }
            ";" if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    // Pattern span: up to the type annotation or the `=`/`;`. A
    // capitalised ident names a variant or type, so it binds nothing.
    let pat_end = colon.or(eq).unwrap_or(j.min(n));
    let names: Vec<String> = tokens[let_idx + 1..pat_end.min(n)]
        .iter()
        .filter(|t| t.kind == Kind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "_"))
        .filter(|t| !t.text.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(|t| t.text.clone())
        .collect();
    if names.is_empty() {
        return None;
    }
    // Initializer: from past `=` to the statement's `;` at depth 0.
    let (init, stmt_end) = match eq {
        Some(eq_idx) => {
            let mut depth = 0i32;
            let mut k = eq_idx + 1;
            while k < n {
                match tokens[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            break; // expression-tail `let` (no `;`)
                        }
                        depth -= 1;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            ((eq_idx + 1, k), k)
        }
        None => ((j.min(n), j.min(n)), j.min(n)),
    };
    let _ = matches; // bracket matching already folded into the depth scans
    Some(Binding {
        names,
        line: tokens[let_idx].line,
        let_idx,
        init,
        stmt_end,
        scope_end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> (Vec<Token>, ScopeModel) {
        let toks = lex(src);
        let m = ScopeModel::build(&toks);
        (toks, m)
    }

    #[test]
    fn fns_with_generics_and_return_types_parse() {
        let (_, m) = model(
            "fn plain(a: u32) -> bool { a > 0 }\n\
             fn generic<S: Store + Send, F: FnMut(u32) -> bool>(s: S, f: F) { }\n\
             trait T { fn sig(&self); fn with_body(&self) { } }",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["plain", "generic", "with_body"]);
    }

    #[test]
    fn nested_fns_are_separate_items() {
        let (_, m) = model("fn outer() { fn inner() { } inner(); }");
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn bindings_carry_scope_and_init() {
        let (toks, m) = model(
            "fn f() { let a = g(); { let mut b: u32 = a + 1; h(b); } let (c, d) = pair(); }",
        );
        let names: Vec<Vec<String>> = m.bindings.iter().map(|b| b.names.clone()).collect();
        assert_eq!(names, vec![
            vec!["a".to_string()],
            vec!["b".to_string()],
            vec!["c".to_string(), "d".to_string()]
        ]);
        // `b` drops at the inner block's `}`, before `let (c, d)`.
        let b = &m.bindings[1];
        let c = &m.bindings[2];
        assert!(b.scope_end < c.let_idx);
        // `a`'s scope is the function body's close.
        let a = &m.bindings[0];
        assert_eq!(a.scope_end, m.fns[0].body.1);
        assert!(toks[a.init.0..a.init.1].iter().any(|t| t.text == "g"));
    }

    #[test]
    fn calls_classify_method_path_and_macro() {
        let (_, m) = model(
            "fn f() { dep.master.lock(); Field::from(x); format!(\"{x}\"); plain(1); \
             items[0].push(2); }",
        );
        let find = |name: &str| m.calls.iter().find(|c| c.callee == name).unwrap();
        assert_eq!(find("lock").receiver.as_deref(), Some("master"));
        assert_eq!(find("from").path_prefix.as_deref(), Some("Field"));
        assert!(find("format").is_macro);
        assert!(find("plain").receiver.is_none() && find("plain").path_prefix.is_none());
        assert_eq!(find("push").receiver.as_deref(), Some("items"));
    }

    #[test]
    fn let_else_match_arms_do_not_derail() {
        let (_, m) = model(
            "fn f(o: Option<u32>) -> u32 { match o { Some(v) => v, None => 0 } }",
        );
        // No `let` bindings, one fn, calls include none spurious from `=>`.
        assert!(m.bindings.is_empty());
        assert_eq!(m.fns.len(), 1);
    }
}
