//! `camelot-lint.toml` parsing: rule scopes and the justified allowlist.
//!
//! The workspace is dependency-free, so this is a hand-rolled parser for the
//! small TOML subset the config actually uses: `[paths]` / `[[allow]]`
//! tables, `key = "string"`, and `key = [ "a", "b" ]` arrays (single- or
//! multi-line). Comments start with `#` outside strings. Unknown sections or
//! keys are hard errors — a typo in the allowlist must not silently widen
//! the gate.

use crate::rules::{Finding, RuleScope};

/// One `[[allow]]` exemption. A finding is suppressed when `rule` and
/// `file` match exactly and the finding's source line contains `pattern`
/// (line-text matching survives unrelated edits shifting line numbers).
/// `justification` is mandatory and must be nonempty: every exemption is
/// argued for in-repo.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Rule id the exemption applies to.
    pub rule: String,
    /// Workspace-relative `/`-separated path, matched exactly.
    pub file: String,
    /// Substring that must occur in the offending source line.
    pub pattern: String,
    /// Why this violation is acceptable. Required, surfaced in reports.
    pub justification: String,
}

/// Parsed configuration: rule scopes plus the allowlist.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which paths each scoped rule applies to.
    pub scope: RuleScope,
    /// Justified exemptions.
    pub allows: Vec<Allow>,
}

impl Config {
    /// The scopes used when no `camelot-lint.toml` exists: the canonical
    /// Camelot invariant surfaces. Kept in sync with the shipped config.
    pub fn default_config() -> Self {
        let scope = RuleScope {
            panic_free: vec![
                "crates/core/src/wire.rs".to_string(),
                "crates/cluster/src/transport/".to_string(),
                "crates/cluster/src/bin/camelot_node.rs".to_string(),
                "crates/server/src/".to_string(),
                "crates/store/src/".to_string(),
            ],
            dropped_result: vec![
                "crates/core/src/".to_string(),
                "crates/cluster/src/".to_string(),
                "crates/server/src/".to_string(),
                "crates/store/src/".to_string(),
            ],
            hot_regions: vec!["crates/ff/src/".to_string(), "crates/poly/src/".to_string()],
            no_sleep: vec![
                "crates/cluster/src/transport/".to_string(),
                "crates/server/src/service.rs".to_string(),
            ],
            all_paths: false,
        };
        Config { scope, allows: Vec::new() }
    }
}

/// Split findings into (blocking, allowed-with-entry-index) and report
/// stale allowlist entries that matched nothing.
pub fn apply_allowlist(
    findings: Vec<Finding>,
    allows: &[Allow],
) -> (Vec<Finding>, Vec<(Finding, usize)>, Vec<usize>) {
    let mut used = vec![false; allows.len()];
    let mut blocking = Vec::new();
    let mut allowed = Vec::new();
    for f in findings {
        let hit = allows.iter().enumerate().find(|(_, a)| {
            a.rule == f.rule && a.file == f.file && f.snippet.contains(a.pattern.as_str())
        });
        match hit {
            Some((i, _)) => {
                used[i] = true;
                allowed.push((f, i));
            }
            None => blocking.push(f),
        }
    }
    let stale = used.iter().enumerate().filter(|&(_, &u)| !u).map(|(i, _)| i).collect();
    (blocking, allowed, stale)
}

/// Parse the config text. Errors carry a line number and are fatal (exit 2
/// in the CLI): a malformed allowlist must not be interpreted as "allow
/// nothing" *or* "allow everything".
pub fn parse(text: &str) -> Result<Config, String> {
    enum Section {
        None,
        Paths,
        Allow,
    }
    let mut config = Config { scope: RuleScope::default(), allows: Vec::new() };
    let mut section = Section::None;
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[paths]" {
            section = Section::Paths;
            continue;
        }
        if line == "[[allow]]" {
            section = Section::Allow;
            config.allows.push(Allow {
                rule: String::new(),
                file: String::new(),
                pattern: String::new(),
                justification: String::new(),
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("line {lineno}: unknown section `{line}`"));
        }
        let (key, mut value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        // Multi-line arrays: keep consuming lines until the closing `]`.
        while value.starts_with('[') && !value.ends_with(']') {
            let (_, next) =
                lines.next().ok_or_else(|| format!("line {lineno}: unterminated array"))?;
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        match section {
            Section::Paths => {
                let items = parse_string_array(&value)
                    .map_err(|e| format!("line {lineno}: {e} in `{key}`"))?;
                match key.as_str() {
                    "panic-free" => config.scope.panic_free = items,
                    "no-dropped-result" => config.scope.dropped_result = items,
                    "hot-regions" => config.scope.hot_regions = items,
                    "no-sleep" => config.scope.no_sleep = items,
                    _ => return Err(format!("line {lineno}: unknown [paths] key `{key}`")),
                }
            }
            Section::Allow => {
                let s = parse_string(&value).map_err(|e| format!("line {lineno}: {e}"))?;
                let entry = config
                    .allows
                    .last_mut()
                    .ok_or_else(|| format!("line {lineno}: key outside [[allow]]"))?;
                match key.as_str() {
                    "rule" => entry.rule = s,
                    "file" => entry.file = s,
                    "pattern" => entry.pattern = s,
                    "justification" => entry.justification = s,
                    _ => return Err(format!("line {lineno}: unknown [[allow]] key `{key}`")),
                }
            }
            Section::None => {
                return Err(format!("line {lineno}: key `{key}` outside any section"));
            }
        }
    }
    for (i, a) in config.allows.iter().enumerate() {
        let which = |what: &str| format!("[[allow]] entry {}: missing or empty `{what}`", i + 1);
        if a.rule.trim().is_empty() {
            return Err(which("rule"));
        }
        if a.file.trim().is_empty() {
            return Err(which("file"));
        }
        if a.pattern.trim().is_empty() {
            return Err(which("pattern"));
        }
        if a.justification.trim().is_empty() {
            return Err(format!(
                "[[allow]] entry {} ({} in {}): every exemption requires a nonempty `justification`",
                i + 1,
                a.rule,
                a.file
            ));
        }
    }
    Ok(config)
}

/// Remove a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse a single `"…"` TOML string with basic escapes.
fn parse_string(value: &str) -> Result<String, String> {
    let value = value.trim();
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got `{value}`"))?;
    unescape(inner)
}

/// Parse `[ "a", "b" ]`.
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| "expected an array of strings".to_string())?;
    let mut items = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let body = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a quoted string, got `{rest}`"))?;
        let mut end = None;
        let mut escaped = false;
        for (i, c) in body.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let end = end.ok_or_else(|| "unterminated string in array".to_string())?;
        items.push(unescape(&body[..end])?);
        rest = body[end + 1..].trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("expected `,` between array items, got `{rest}`"));
        }
    }
    Ok(items)
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => return Err(format!("unsupported escape `\\{other}`")),
            None => return Err("dangling `\\` at end of string".to_string()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn parses_paths_and_allows() {
        let cfg = parse(
            r##"
# comment
[paths]
panic-free = [
    "a/",   # trailing comment
    "b.rs",
]
hot-regions = ["c/"]

[[allow]]
rule = "panic-path"
file = "a/x.rs"
pattern = "points[lo..hi]"
justification = "bounds proven by node_slice"
"##,
        )
        .unwrap();
        assert_eq!(cfg.scope.panic_free, vec!["a/", "b.rs"]);
        assert_eq!(cfg.scope.hot_regions, vec!["c/"]);
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].pattern, "points[lo..hi]");
    }

    #[test]
    fn empty_justification_is_fatal() {
        let err = parse(
            "[[allow]]\nrule = \"x\"\nfile = \"y\"\npattern = \"z\"\njustification = \"  \"\n",
        )
        .unwrap_err();
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn unknown_keys_are_fatal() {
        assert!(parse("[paths]\nnope = [\"a\"]\n").is_err());
        assert!(parse("[wat]\n").is_err());
    }

    #[test]
    fn allowlist_matching_and_staleness() {
        let allows = vec![
            Allow {
                rule: "panic-path".into(),
                file: "f.rs".into(),
                pattern: "v[0]".into(),
                justification: "ok".into(),
            },
            Allow {
                rule: "panic-path".into(),
                file: "f.rs".into(),
                pattern: "never-matches".into(),
                justification: "ok".into(),
            },
        ];
        let findings = vec![Finding {
            file: "f.rs".into(),
            line: 3,
            rule: "panic-path",
            message: "indexing".into(),
            snippet: "let x = v[0];".into(),
        }];
        let (blocking, allowed, stale) = apply_allowlist(findings, &allows);
        assert!(blocking.is_empty());
        assert_eq!(allowed.len(), 1);
        assert_eq!(stale, vec![1]);
    }
}
