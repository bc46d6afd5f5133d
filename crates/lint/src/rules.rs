//! The rule engine: domain invariants checked over the token stream.
//!
//! Rule catalogue (ids are what `camelot-lint.toml` allowlist entries and
//! the JSON report reference):
//!
//! | id               | scope (config `[paths]`)    | invariant |
//! |------------------|-----------------------------|-----------|
//! | `panic-path`     | `panic-free` prefixes       | no `unwrap`/`expect`, no panicking macros, no `[]` indexing — untrusted input must surface as `CamelotError`/`TransportError`, never abort a worker |
//! | `hot-path`       | `hot-regions` prefixes      | inside `// lint:hot-begin(name)` … `// lint:hot-end` regions: no `%` reduction, no `.clone()`, no allocation |
//! | `crate-header`   | every `src/lib.rs`          | crate root carries `#![forbid(unsafe_code)]` + the shared `#![deny(...)]` set |
//! | `dropped-result` | `no-dropped-result` prefixes| no `let _ = fallible(...)` — errors must propagate or be handled |
//! | `critical-path-sleep` | `no-sleep` prefixes     | no `thread::sleep` — on the request path waiting is a blocking read or accept against a deadline, never a poll interval |
//!
//! Code under `#[cfg(test)]` / `#[test]` items is exempt from every rule:
//! tests panicking on broken invariants is exactly what tests are for.
//! `debug_assert!` family macros are likewise allowed in panic-free scopes —
//! they compile out of release builds, so they cannot abort a production
//! worker, while still documenting invariants in debug runs.

use crate::lexer::{lex, Token, TokenKind};

/// One rule violation, positioned by file and line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (`/`-separated) of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule id (see the module docs for the catalogue).
    pub rule: &'static str,
    /// Human-oriented description of the violation.
    pub message: String,
    /// The trimmed source line, used for allowlist pattern matching.
    pub snippet: String,
}

/// Which rules apply to which files; built from `camelot-lint.toml` by
/// [`crate::config`], or set to [`RuleScope::all`] to run every rule on
/// every file (the `--all-paths` fixture/smoke mode).
#[derive(Clone, Debug, Default)]
pub struct RuleScope {
    /// Path prefixes whose files must be panic-free.
    pub panic_free: Vec<String>,
    /// Path prefixes whose files may not drop `Result`s via `let _ =`.
    pub dropped_result: Vec<String>,
    /// Path prefixes whose `lint:hot-begin/end` regions are checked.
    pub hot_regions: Vec<String>,
    /// Path prefixes (the TCP request paths) that may not `thread::sleep`.
    pub no_sleep: Vec<String>,
    /// When set, every rule applies to every file regardless of prefixes.
    pub all_paths: bool,
}

impl RuleScope {
    /// A scope that applies every rule to every file.
    pub fn all() -> Self {
        RuleScope { all_paths: true, ..RuleScope::default() }
    }

    fn applies(&self, path: &str, prefixes: &[String]) -> bool {
        self.all_paths || prefixes.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// Run every in-scope rule over one file's source. `rel_path` must use `/`
/// separators (it is matched against config prefixes and allowlist entries).
pub fn lint_file(rel_path: &str, source: &str, scope: &RuleScope) -> Vec<Finding> {
    let tokens = lex(source);
    let file = FileView::new(rel_path, source, &tokens);
    let mut findings = Vec::new();
    if scope.applies(rel_path, &scope.panic_free) {
        panic_path_rule(&file, &mut findings);
    }
    if scope.applies(rel_path, &scope.hot_regions) {
        hot_path_rule(&file, &mut findings);
    }
    if scope.all_paths || rel_path.ends_with("src/lib.rs") {
        crate_header_rule(&file, &mut findings);
    }
    if scope.applies(rel_path, &scope.dropped_result) {
        dropped_result_rule(&file, &mut findings);
    }
    if scope.applies(rel_path, &scope.no_sleep) {
        critical_path_sleep_rule(&file, &mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Pre-computed per-file views shared by the rules: the significant
/// (non-trivia) token sequence, which of those tokens sit inside test-only
/// items, and the raw source lines for snippets.
struct FileView<'a> {
    path: &'a str,
    tokens: &'a [Token<'a>],
    /// Indices into `tokens` of non-whitespace, non-comment tokens.
    sig: Vec<usize>,
    /// Parallel to `sig`: true when the token is inside `#[cfg(test)]` /
    /// `#[test]` items.
    in_test: Vec<bool>,
    lines: Vec<&'a str>,
}

impl<'a> FileView<'a> {
    fn new(path: &'a str, source: &'a str, tokens: &'a [Token<'a>]) -> Self {
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let in_test = mark_test_items(tokens, &sig);
        FileView { path, tokens, sig, in_test, lines: source.lines().collect() }
    }

    /// The significant token at significant-index `s`.
    fn tok(&self, s: usize) -> &Token<'a> {
        &self.tokens[self.sig[s]]
    }

    fn text(&self, s: usize) -> &'a str {
        self.tok(s).text
    }

    fn kind(&self, s: usize) -> TokenKind {
        self.tok(s).kind
    }

    fn finding(&self, s: usize, rule: &'static str, message: String) -> Finding {
        let line = self.tok(s).line;
        let snippet =
            self.lines.get(line as usize - 1).map_or(String::new(), |l| l.trim().to_string());
        Finding { file: self.path.to_string(), line, rule, message, snippet }
    }
}

/// Mark significant tokens covered by `#[cfg(test)]` / `#[test]` items.
///
/// Heuristic but robust for rustfmt-formatted code: on seeing one of those
/// attributes, skip any further attributes, then mark everything up to the
/// end of the next item — the matching `}` of its first brace, or a `;` for
/// braceless items.
fn mark_test_items(tokens: &[Token<'_>], sig: &[usize]) -> Vec<bool> {
    let text = |s: usize| tokens[sig[s]].text;
    let n = sig.len();
    let mut marked = vec![false; n];
    let mut s = 0usize;
    while s < n {
        if let Some(after_attr) = match_test_attribute(tokens, sig, s) {
            let mut j = after_attr;
            // Skip stacked attributes (e.g. `#[cfg(test)] #[allow(...)] mod t`).
            while j < n && text(j) == "#" && j + 1 < n && text(j + 1) == "[" {
                let mut depth = 0i32;
                while j < n {
                    match text(j) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // Find the item body: first `{` before a top-level `;`.
            let body_start = j;
            let mut end = n;
            let mut k = j;
            let mut paren = 0i32;
            while k < n {
                match text(k) {
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren -= 1,
                    ";" if paren <= 0 => {
                        end = k + 1;
                        break;
                    }
                    "{" if paren <= 0 => {
                        let mut depth = 0i32;
                        while k < n {
                            match text(k) {
                                "{" => depth += 1,
                                "}" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        end = (k + 1).min(n);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            for flag in marked.iter_mut().take(end).skip(s.min(body_start)) {
                *flag = true;
            }
            s = end.max(s + 1);
        } else {
            s += 1;
        }
    }
    marked
}

/// If significant index `s` starts a `#[cfg(test)]` or `#[test]` attribute,
/// return the significant index one past its closing `]`.
fn match_test_attribute(tokens: &[Token<'_>], sig: &[usize], s: usize) -> Option<usize> {
    let text = |s: usize| sig.get(s).map(|&i| tokens[i].text);
    if text(s) != Some("#") || text(s + 1) != Some("[") {
        return None;
    }
    let is_test = match text(s + 2) {
        Some("test") => text(s + 3) == Some("]"),
        Some("cfg") => {
            text(s + 3) == Some("(")
                && text(s + 4) == Some("test")
                && text(s + 5) == Some(")")
                && text(s + 6) == Some("]")
        }
        _ => false,
    };
    if !is_test {
        return None;
    }
    // Walk to the closing `]` (we already know its position, but keep it
    // uniform for both shapes).
    let mut depth = 0i32;
    let mut j = s + 1;
    while let Some(t) = text(j) {
        match t {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    Some(j)
}

const PANICKING_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

fn panic_path_rule(file: &FileView<'_>, out: &mut Vec<Finding>) {
    for s in 0..file.sig.len() {
        if file.in_test[s] {
            continue;
        }
        let prev = s.checked_sub(1).map(|p| file.text(p));
        let next = file.sig.get(s + 1).map(|_| file.text(s + 1));
        match file.kind(s) {
            TokenKind::Ident => {
                let name = file.text(s);
                if (name == "unwrap" || name == "expect") && prev == Some(".") && next == Some("(")
                {
                    out.push(file.finding(
                        s,
                        "panic-path",
                        format!("`.{name}()` can abort a worker; return a `CamelotError` instead"),
                    ));
                } else if PANICKING_MACROS.contains(&name) && next == Some("!") {
                    out.push(file.finding(
                        s,
                        "panic-path",
                        format!("`{name}!` panics; untrusted input must surface as an error"),
                    ));
                }
            }
            // `expr[...]` indexing can panic. The previous significant
            // token is an identifier, `]`, or `)` exactly when `[` is an
            // index expression (attributes follow `#`/`!`, slice types
            // follow `&`/`<`/`(`, array literals follow `=`/`,`/…,
            // macro brackets follow `!`).
            TokenKind::Punct
                if file.text(s) == "["
                    && (matches!(prev, Some("]") | Some(")"))
                        || (s > 0
                            && file.kind(s - 1) == TokenKind::Ident
                            && !is_keyword(file.text(s - 1)))) =>
            {
                out.push(file.finding(
                    s,
                    "panic-path",
                    "indexing can panic on out-of-range input; use `.get(..)`".to_string(),
                ));
            }
            _ => {}
        }
    }
}

/// Keywords that may directly precede `[` without forming an index
/// expression (e.g. `return [..]`, `in [..]`).
fn is_keyword(t: &str) -> bool {
    matches!(
        t,
        "return" | "in" | "if" | "else" | "match" | "break" | "const" | "static" | "mut" | "dyn"
    )
}

const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "collect"];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_TYPES: &[&str] = &["Vec", "String", "Box", "HashMap", "BTreeMap", "VecDeque"];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

fn hot_path_rule(file: &FileView<'_>, out: &mut Vec<Finding>) {
    // Regions are delimited by comments; walk the *full* token stream to see
    // them, but report only on significant tokens inside a region.
    let mut region: Option<(String, usize)> = None; // (name, opening token idx)
    let mut sig_cursor = 0usize;
    for (i, t) in file.tokens.iter().enumerate() {
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            // A marker is a comment whose body *starts* with the directive
            // (prose that merely mentions `lint:hot-begin` is not one).
            let body = t.text.trim_start_matches(['/', '*', '!']).trim_start();
            if body.starts_with("lint:hot-begin") {
                let name = body
                    .split_once("lint:hot-begin")
                    .and_then(|(_, rest)| rest.strip_prefix('('))
                    .and_then(|rest| rest.split_once(')'))
                    .map_or_else(|| "unnamed".to_string(), |(n, _)| n.to_string());
                if region.is_some() {
                    // Keep the outer region open so everything after the
                    // stray marker is still checked (and the unterminated
                    // finding, if any, points at the outer begin).
                    out.push(finding_at(
                        file,
                        i,
                        "hot-path",
                        "nested `lint:hot-begin` marker; close the previous region first"
                            .to_string(),
                    ));
                } else {
                    region = Some((name, i));
                }
            } else if body.starts_with("lint:hot-end") && region.take().is_none() {
                out.push(finding_at(
                    file,
                    i,
                    "hot-path",
                    "`lint:hot-end` without a matching `lint:hot-begin`".to_string(),
                ));
            }
            continue;
        }
        // Advance the significant cursor so we can consult neighbours/test
        // status for this token.
        while sig_cursor < file.sig.len() && file.sig[sig_cursor] < i {
            sig_cursor += 1;
        }
        let Some((name, _)) = &region else { continue };
        if sig_cursor >= file.sig.len() || file.sig[sig_cursor] != i || file.in_test[sig_cursor] {
            continue;
        }
        let s = sig_cursor;
        let prev = s.checked_sub(1).map(|p| file.text(p));
        let next = file.sig.get(s + 1).map(|_| file.text(s + 1));
        match t.kind {
            TokenKind::Punct if t.text == "%" => {
                out.push(file.finding(
                    s,
                    "hot-path",
                    format!(
                        "`%` reduction inside hot region `{name}`; use Barrett/Shoup field ops"
                    ),
                ));
            }
            TokenKind::Ident => {
                let word = t.text;
                if word == "clone" && prev == Some(".") && next == Some("(") {
                    out.push(file.finding(
                        s,
                        "hot-path",
                        format!("`.clone()` inside hot region `{name}`"),
                    ));
                } else if ALLOC_METHODS.contains(&word) && prev == Some(".") && next == Some("(") {
                    out.push(file.finding(
                        s,
                        "hot-path",
                        format!("allocating `.{word}()` inside hot region `{name}`"),
                    ));
                } else if ALLOC_MACROS.contains(&word) && next == Some("!") {
                    out.push(file.finding(
                        s,
                        "hot-path",
                        format!("allocating `{word}!` inside hot region `{name}`"),
                    ));
                } else if ALLOC_CTORS.contains(&word)
                    && s >= 3
                    && file.text(s - 1) == ":"
                    && file.text(s - 2) == ":"
                    && ALLOC_TYPES.contains(&file.text(s - 3))
                {
                    out.push(file.finding(
                        s,
                        "hot-path",
                        format!(
                            "allocation `{}::{word}` inside hot region `{name}`",
                            file.text(s - 3)
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    if let Some((name, i)) = region {
        out.push(finding_at(
            file,
            i,
            "hot-path",
            format!("hot region `{name}` is never closed with `lint:hot-end`"),
        ));
    }
}

/// Build a finding from a *raw* token index (used for comment markers, which
/// are not significant tokens).
fn finding_at(file: &FileView<'_>, i: usize, rule: &'static str, message: String) -> Finding {
    let line = file.tokens[i].line;
    let snippet = file.lines.get(line as usize - 1).map_or(String::new(), |l| l.trim().to_string());
    Finding { file: file.path.to_string(), line, rule, message, snippet }
}

/// The shared header every crate root must carry, in normalized
/// (whitespace-free) attribute form.
pub const REQUIRED_HEADER: &[&str] =
    &["forbid(unsafe_code)", "deny(missing_docs)", "deny(rustdoc::broken_intra_doc_links)"];

fn crate_header_rule(file: &FileView<'_>, out: &mut Vec<Finding>) {
    // Collect all inner attributes `#![...]`, normalized by concatenating
    // their significant token texts.
    let mut present: Vec<String> = Vec::new();
    let mut s = 0usize;
    while s + 2 < file.sig.len() {
        if file.text(s) == "#" && file.text(s + 1) == "!" && file.text(s + 2) == "[" {
            let mut depth = 0i32;
            let mut j = s + 2;
            let mut body = String::new();
            while j < file.sig.len() {
                match file.text(j) {
                    "[" => {
                        depth += 1;
                        if depth > 1 {
                            body.push('[');
                        }
                    }
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                        body.push(']');
                    }
                    t => body.push_str(t),
                }
                j += 1;
            }
            present.push(body);
            s = j + 1;
        } else {
            s += 1;
        }
    }
    for required in REQUIRED_HEADER {
        if !present.iter().any(|p| p == required) {
            let snippet = file.lines.first().map_or(String::new(), |l| l.trim().to_string());
            out.push(Finding {
                file: file.path.to_string(),
                line: 1,
                rule: "crate-header",
                message: format!("crate root is missing `#![{required}]` from the shared header"),
                snippet,
            });
        }
    }
}

fn dropped_result_rule(file: &FileView<'_>, out: &mut Vec<Finding>) {
    let n = file.sig.len();
    for s in 0..n {
        if file.in_test[s]
            || file.text(s) != "let"
            || file.kind(s) != TokenKind::Ident
            || s + 2 >= n
            || file.text(s + 1) != "_"
            || file.text(s + 2) != "="
        {
            continue;
        }
        // `let _ = expr;` — flag when the right-hand side contains a call
        // (parentheses at any depth), i.e. a potentially fallible expression
        // whose `Result` is being silently discarded.
        let mut depth = 0i32;
        let mut has_call = false;
        let mut j = s + 3;
        while j < n {
            match file.text(j) {
                "(" => {
                    depth += 1;
                    has_call = true;
                }
                ")" => depth -= 1,
                "{" | "[" => depth += 1,
                "}" | "]" => depth -= 1,
                ";" if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        if has_call {
            out.push(file.finding(
                s,
                "dropped-result",
                "`let _ =` silently drops a possible `Result`; propagate or handle it".to_string(),
            ));
        }
    }
}

fn critical_path_sleep_rule(file: &FileView<'_>, out: &mut Vec<Finding>) {
    // `thread::sleep` as a path, wherever it appears: a call, or an import
    // that would let later calls go by the bare name.
    for s in 3..file.sig.len() {
        if !file.in_test[s]
            && file.text(s) == "sleep"
            && file.text(s - 1) == ":"
            && file.text(s - 2) == ":"
            && file.text(s - 3) == "thread"
        {
            out.push(file.finding(
                s,
                "critical-path-sleep",
                "`thread::sleep` on a request path; wait on the socket against a deadline instead"
                    .to_string(),
            ));
        }
    }
}
