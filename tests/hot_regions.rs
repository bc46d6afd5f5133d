//! The kernels every NTT butterfly, Horner loop, Yates sweep and matrix
//! product bottoms out in are marked `// lint:hot-begin(name)` …
//! `// lint:hot-end`. Inside a region the code does no `%` reduction
//! (Barrett/Shoup field ops do that), no `.clone()` and no allocation.
//! Clippy has no lint scoped to part of a file, so this test scans the
//! regions under `crates/*/src` line by line, in code outside `//`
//! comments.

use std::fs;
use std::path::{Path, PathBuf};

/// Banned inside a hot region.
const BANNED: &[&str] =
    &["%", ".clone(", "vec!", "format!", ".to_vec(", ".to_owned(", ".to_string(", ".collect("];
/// Allocating constructors, banned as `Type::ctor`.
const ALLOC_TYPES: &[&str] = &["Vec", "String", "Box", "HashMap", "BTreeMap", "VecDeque"];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

const BEGIN: &str = "// lint:hot-begin";
const END: &str = "// lint:hot-end";

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `code` holds `pattern` not glued to a longer identifier on
/// either side (`vec!` is not `smallvec!`, `Vec::from` is not
/// `Vec::from_fn`).
fn contains_token(code: &str, pattern: &str) -> bool {
    code.match_indices(pattern).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = code[at + pattern.len()..].chars().next();
        let glued_before = pattern.starts_with(is_ident) && before.is_some_and(is_ident);
        let glued_after = pattern.ends_with(is_ident) && after.is_some_and(is_ident);
        !glued_before && !glued_after
    })
}

/// Scans one file: returns how many regions it opens and one finding
/// per offending line or marker, as `(1-based line, what)`.
fn scan(source: &str) -> (usize, Vec<(usize, String)>) {
    let mut regions = 0;
    let mut open: Option<usize> = None;
    let mut findings = Vec::new();
    for (index, line) in source.lines().enumerate() {
        let line_no = index + 1;
        let trimmed = line.trim_start();
        if trimmed.starts_with(BEGIN) {
            if open.is_some() {
                findings.push((line_no, "nested `lint:hot-begin`".to_string()));
            } else {
                open = Some(line_no);
                regions += 1;
            }
            continue;
        }
        if trimmed.starts_with(END) {
            if open.take().is_none() {
                findings.push((line_no, "`lint:hot-end` without a region".to_string()));
            }
            continue;
        }
        if open.is_none() {
            continue;
        }
        let code = line.split_once("//").map_or(line, |(code, _)| code);
        for pattern in BANNED {
            if contains_token(code, pattern) {
                findings.push((line_no, format!("`{pattern}`")));
            }
        }
        for ty in ALLOC_TYPES {
            for ctor in ALLOC_CTORS {
                let pattern = format!("{ty}::{ctor}");
                if contains_token(code, &pattern) {
                    findings.push((line_no, format!("`{pattern}`")));
                }
            }
        }
    }
    if let Some(line_no) = open {
        findings.push((line_no, "region never closed".to_string()));
    }
    (regions, findings)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir).expect("readable dir").map(|e| e.expect("dir entry").path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn hot_regions_are_reduction_clone_and_allocation_free() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in fs::read_dir(&crates).expect("crates/ exists") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut regions = 0;
    let mut findings = Vec::new();
    for file in &files {
        let (count, found) = scan(&fs::read_to_string(file).expect("readable source"));
        regions += count;
        let name = file.strip_prefix(&crates).expect("under crates/").display();
        findings.extend(found.into_iter().map(|(line, what)| format!("{name}:{line}: {what}")));
    }
    assert!(findings.is_empty(), "hot-region violations:\n{}", findings.join("\n"));
    // A marker renamed or a file moved out of `crates/*/src` would
    // silently drop a region from the scan; adding one updates this.
    assert_eq!(regions, 14, "hot regions found under crates/*/src");
}

#[test]
fn the_scan_fires_on_every_banned_construct_and_marker_error() {
    let fixture = "\
fn cold(a: u64) -> Vec<u64> { vec![a % 7] }
// lint:hot-begin(fixture) — a region
fn reduce(a: u64, q: u64) -> u64 { a % q }
fn copy(v: &Vec<u64>) -> Vec<u64> { v.clone() }
fn fresh() -> Vec<u64> { vec![0; 4] }
fn text(a: u64) -> String { format!(\"{a}\") }
fn owned(v: &[u64]) -> Vec<u64> { v.to_vec() }
fn name(s: &str) -> String { s.to_owned() }
fn show(a: u64) -> String { a.to_string() }
fn gather(v: &[u64]) -> Vec<u64> { v.iter().copied().collect() }
fn empty() -> Vec<u64> { Vec::new() }
fn sized() -> Vec<u64> { Vec::with_capacity(8) }
fn boxed(a: u64) -> Box<u64> { Box::new(a) }
fn map() -> std::collections::HashMap<u64, u64> { HashMap::new() }
fn tree() -> BTreeMap<u64, u64> { BTreeMap::new() }
fn queue() -> VecDeque<u64> { VecDeque::from([1]) }
fn words() -> String { String::from(\"x\") }
fn fine(v: &mut [u64], q: u64) { v[0] = v[0].min(q); } // a % or .clone() in a comment is not code
fn glued() -> Vec<u64> { smallvec![1]; MyVec::new(); Vec::from_fn() }
// lint:hot-begin(nested)
// lint:hot-end
// lint:hot-end
// lint:hot-begin(open)
";
    let (regions, findings) = scan(fixture);
    let lines: Vec<usize> = findings.iter().map(|&(line, _)| line).collect();
    assert_eq!(regions, 2);
    assert_eq!(
        lines,
        [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 22, 23],
        "{findings:?}"
    );
}
