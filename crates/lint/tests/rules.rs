//! Fixture-driven rule tests: every file in `tests/fixtures/` carries
//! `//~ rule-id` annotations on the lines where a rule must fire (repeated
//! ids mean repeated findings on that line), and the engine's finding set
//! must equal the annotation set exactly — no missed violations, no false
//! positives, anywhere in the corpus.

use std::collections::BTreeMap;
use std::path::PathBuf;

use camelot_lint::rules::{lint_file, RuleScope};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Parse `//~ rule [rule ...]` annotations into (line, rule) -> count.
fn annotations(source: &str) -> BTreeMap<(u32, String), usize> {
    let mut out = BTreeMap::new();
    for (idx, line) in source.lines().enumerate() {
        let Some((_, tail)) = line.split_once("//~") else { continue };
        for rule in tail.split_whitespace() {
            *out.entry((idx as u32 + 1, rule.to_string())).or_insert(0) += 1;
        }
    }
    out
}

#[test]
fn fixtures_fire_exactly_where_annotated() {
    let dir = fixtures_dir();
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no fixtures found in {}", dir.display());
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name").to_string();
        let source = std::fs::read_to_string(&path).expect("readable fixture");
        let expected = annotations(&source);
        let findings = lint_file(&name, &source, &RuleScope::all());
        let mut got: BTreeMap<(u32, String), usize> = BTreeMap::new();
        for f in &findings {
            *got.entry((f.line, f.rule.to_string())).or_insert(0) += 1;
        }
        assert_eq!(
            got, expected,
            "finding/annotation mismatch in fixture {name}:\n  findings: {findings:#?}"
        );
        checked += 1;
    }
    assert!(checked >= 5, "fixture corpus shrank unexpectedly ({checked} files)");
}

#[test]
fn clean_fixture_is_clean() {
    let path = fixtures_dir().join("clean.rs");
    let source = std::fs::read_to_string(path).expect("readable fixture");
    let findings = lint_file("clean.rs", &source, &RuleScope::all());
    assert!(findings.is_empty(), "clean fixture produced findings: {findings:#?}");
}

#[test]
fn scoped_rules_skip_out_of_scope_files() {
    let source = std::fs::read_to_string(fixtures_dir().join("panic_sites.rs")).expect("fixture");
    // Under workspace scoping, a file outside every prefix only gets the
    // (unconditional for lib.rs, otherwise skipped) header rule.
    let scope = RuleScope {
        panic_free: vec!["crates/core/".to_string()],
        dropped_result: vec![],
        hot_regions: vec![],
        no_sleep: vec![],
        all_paths: false,
    };
    let findings = lint_file("crates/bench/src/panic_sites.rs", &source, &scope);
    assert!(findings.is_empty(), "out-of-scope file was linted: {findings:#?}");
    let findings = lint_file("crates/core/src/panic_sites.rs", &source, &scope);
    assert!(findings.iter().all(|f| f.rule == "panic-path"));
    assert!(!findings.is_empty());
}
