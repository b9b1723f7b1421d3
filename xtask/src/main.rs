//! Workspace invariant lints, run as `cargo xtask lint`.
//!
//! A source-level token scan (no `syn`, no rustc plumbing) that enforces three
//! invariants the compiler cannot:
//!
//! 1. **`no-panic`** — no `.unwrap()` / `.expect(` / `panic!` outside
//!    `#[cfg(test)]` code in hot-path modules (the executor, online planning,
//!    the sharded fan-out, the serve loop). A panicking hot path takes a whole
//!    worker — or a whole shard fan-out — down with one request.
//! 2. **`no-wall-clock`** — no `Instant::now` / `SystemTime::now` inside the
//!    simulated-time engine (`crates/vizdb`). Every cost there must come from
//!    the deterministic simulated clock, or reproducibility is gone.
//! 3. **`sync-facade`** — no raw `std::sync` / `parking_lot` / `std::thread`
//!    imports in the concurrent modules that must go through `vizdb::sync`,
//!    so `--cfg maliva_model_check` really swaps *every* primitive onto the
//!    loomlite shims. `std::sync::Arc` (pure refcount) and
//!    `std::thread::scope` (driven via facade `spawn` in model tests) are
//!    exempt.
//!
//! The scanner masks comments, string/char literals and `#[cfg(test)]` items
//! before matching, so tokens inside docs, test modules or literals never
//! trip a rule. Exceptions live in `xtask/lint.allow` (one `rule path
//! [line-substring]` triple per line), never inline.
//!
//! Diagnostics are `path:line: [rule] message` — clickable in editors and CI
//! logs alike.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = workspace_root();
            match run_lint(&root) {
                Ok(()) => ExitCode::SUCCESS,
                Err(count) => {
                    eprintln!("xtask lint: {count} violation(s)");
                    ExitCode::FAILURE
                }
            }
        }
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (try `cargo xtask lint`)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("xtask: no task given (try `cargo xtask lint`)");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: this crate lives at `<root>/xtask`.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits one level below the workspace root")
        .to_path_buf()
}

/// One lint violation, carrying everything the diagnostic line needs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Finding {
    rule: &'static str,
    /// Workspace-relative, forward-slashed path.
    path: String,
    /// 1-based line number.
    line: usize,
    message: String,
    /// The offending source line, for allowlist matching and context.
    source_line: String,
}

/// One allowlist entry: `rule path [line-substring]`.
struct Allow {
    rule: String,
    path: String,
    fragment: Option<String>,
}

impl Allow {
    fn permits(&self, finding: &Finding) -> bool {
        (self.rule == "*" || self.rule == finding.rule)
            && finding.path.ends_with(&self.path)
            && self
                .fragment
                .as_ref()
                .is_none_or(|f| finding.source_line.contains(f))
    }
}

fn parse_allowlist(text: &str) -> Vec<Allow> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, char::is_whitespace);
            let rule = parts.next()?.to_string();
            let path = parts.next()?.to_string();
            let fragment = parts.next().map(|s| s.trim().to_string());
            Some(Allow {
                rule,
                path,
                fragment,
            })
        })
        .collect()
}

fn run_lint(root: &Path) -> Result<(), usize> {
    let allowlist = match fs::read_to_string(root.join("xtask/lint.allow")) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => Vec::new(),
    };

    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    files.sort();

    let mut violations = 0usize;
    let mut scanned = 0usize;
    for file in &files {
        let Ok(source) = fs::read_to_string(file) else {
            continue;
        };
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        scanned += 1;
        for finding in scan_source(&rel, &source) {
            if allowlist.iter().any(|a| a.permits(&finding)) {
                continue;
            }
            println!(
                "{}:{}: [{}] {}\n    {}",
                finding.path,
                finding.line,
                finding.rule,
                finding.message,
                finding.source_line.trim()
            );
            violations += 1;
        }
    }
    if violations == 0 {
        println!("xtask lint: clean ({scanned} files scanned)");
        Ok(())
    } else {
        Err(violations)
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Scans one source file against every rule whose path predicate matches,
/// returning findings in line order. Comments, literals and `#[cfg(test)]`
/// items are masked out first.
fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let masked = mask_test_items(&mask_literals(source));
    let mut findings = Vec::new();
    let source_lines: Vec<&str> = source.lines().collect();
    for (i, line) in masked.lines().enumerate() {
        for (rule, applies, check) in RULES {
            if !applies(rel_path) {
                continue;
            }
            if let Some(message) = check(line) {
                findings.push(Finding {
                    rule,
                    path: rel_path.to_string(),
                    line: i + 1,
                    message,
                    source_line: source_lines.get(i).copied().unwrap_or("").to_string(),
                });
            }
        }
    }
    findings
}

type PathPredicate = fn(&str) -> bool;
type LineCheck = fn(&str) -> Option<String>;

const RULES: &[(&str, PathPredicate, LineCheck)] = &[
    ("no-panic", is_hot_path, check_no_panic),
    ("no-wall-clock", is_simulated_time, check_no_wall_clock),
    ("sync-facade", is_facade_module, check_sync_facade),
];

/// Hot-path modules: a panic here takes down a worker thread or a whole
/// request fan-out. All of `exec/` is covered by prefix — the pipeline, its
/// kernels, the lattice pricing pass (which answers "cannot
/// price" with `None`, never a panic) and the reference interpreter it falls back to
/// — and so is `index/`, whose scans fill the selection `bitmap.rs` carries to
/// the sink, and the serve layer's `queue.rs`, whose queue every worker loop
/// runs on. `online.rs` and the `mdp/env.rs` episode it advances run on every
/// request that misses the decision cache, and so do the estimator modules each
/// step of it calls (`QTE_HOT_PATH`).
fn is_hot_path(path: &str) -> bool {
    path.starts_with("crates/vizdb/src/exec/")
        || path.starts_with("crates/vizdb/src/index/")
        || path.starts_with("crates/vizdb/src/sharded/")
        || QTE_HOT_PATH.contains(&path)
        || matches!(
            path,
            "crates/vizdb/src/bitmap.rs"
                | "crates/serve/src/queue.rs"
                | "crates/core/src/online.rs"
                | "crates/core/src/mdp/env.rs"
                | "crates/serve/src/server.rs"
        )
}

/// The per-request estimator modules: both QTEs, the episode's context, the
/// trait and the Approximate-QTE's features.
const QTE_HOT_PATH: [&str; 5] = [
    "crates/qte/src/accurate.rs",
    "crates/qte/src/approximate.rs",
    "crates/qte/src/context.rs",
    "crates/qte/src/traits.rs",
    "crates/qte/src/features.rs",
];

/// The simulated-time engine: all of `vizdb` charges costs to the simulated
/// clock and must never read the wall clock.
fn is_simulated_time(path: &str) -> bool {
    path.starts_with("crates/vizdb/src/")
}

/// Concurrent modules that must route every primitive through `vizdb::sync`
/// (the facade itself is exempt — it *wraps* `std::sync`). `storage/cells.rs`
/// holds `BuildOnce`, the slot that serving threads' first heatmap binnings of
/// a table race to fill with its cell column.
fn is_facade_module(path: &str) -> bool {
    path.starts_with("crates/vizdb/src/sharded/")
        || matches!(
            path,
            "crates/vizdb/src/cache.rs"
                | "crates/vizdb/src/backend.rs"
                | "crates/vizdb/src/storage/cells.rs"
                | "crates/serve/src/cache.rs"
                | "crates/serve/src/queue.rs"
                | "crates/serve/src/server.rs"
        )
}

fn check_no_panic(line: &str) -> Option<String> {
    for (token, what) in [
        (".unwrap()", "`.unwrap()`"),
        (".expect(", "`.expect(..)`"),
        ("panic!", "`panic!`"),
    ] {
        if line.contains(token) {
            return Some(format!(
                "{what} on a hot path: return an error instead (one panicking \
                 request must not take down a worker)"
            ));
        }
    }
    None
}

fn check_no_wall_clock(line: &str) -> Option<String> {
    for token in ["Instant::now", "SystemTime::now"] {
        if line.contains(token) {
            return Some(format!(
                "`{token}` inside simulated-time code: charge the simulated \
                 clock instead, or reproducibility is lost"
            ));
        }
    }
    None
}

fn check_sync_facade(line: &str) -> Option<String> {
    if line.contains("parking_lot") {
        return Some(
            "`parking_lot` in a facade module: use `vizdb::sync` so \
             `--cfg maliva_model_check` can instrument this primitive"
                .into(),
        );
    }
    // `std::sync::Arc` is a pure refcount and stays allowed.
    if line.replace("std::sync::Arc", "").contains("std::sync::") {
        return Some(
            "raw `std::sync` in a facade module: use `vizdb::sync` (only \
             `std::sync::Arc` is exempt)"
                .into(),
        );
    }
    // `std::thread::scope` is exempt: model tests drive these paths through
    // facade `spawn` instead.
    if line
        .replace("std::thread::scope", "")
        .contains("std::thread::")
    {
        return Some(
            "raw `std::thread` in a facade module: use `vizdb::sync::thread` \
             (only `std::thread::scope` is exempt)"
                .into(),
        );
    }
    None
}

/// Replaces every comment, string literal and char literal with spaces,
/// preserving newlines so line numbers survive.
fn mask_literals(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                // Raw string: r"..." or r#"..."# (any number of #).
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0usize;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    j += 1;
                    let closer: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    while j < bytes.len() && !bytes[j..].starts_with(&closer) {
                        j += 1;
                    }
                    j = (j + closer.len()).min(bytes.len());
                    for &b in &bytes[start..j] {
                        out.push(if b == b'\n' { b'\n' } else { b' ' });
                    }
                    i = j;
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            out.extend_from_slice(b"  ");
                            i += 2;
                        }
                        b'"' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            out.push(b'\n');
                            i += 1;
                        }
                        _ => {
                            out.push(b' ');
                            i += 1;
                        }
                    }
                }
            }
            b'\'' => {
                // Char literal ('x', '\n', '\u{..}') vs lifetime ('a). A char
                // literal closes with a quote within a few bytes; a lifetime
                // never closes.
                let mut j = i + 1;
                if bytes.get(j) == Some(&b'\\') {
                    j += 2;
                    while j < bytes.len() && bytes[j] != b'\'' && j - i < 12 {
                        j += 1;
                    }
                } else if j < bytes.len() {
                    j += 1;
                }
                if bytes.get(j) == Some(&b'\'') {
                    out.extend(std::iter::repeat_n(b' ', j - i + 1));
                    i = j + 1;
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("masking only writes ASCII over ASCII")
}

/// Blanks every item annotated `#[cfg(test)]` (or any `cfg(...)` attribute
/// naming `test`), brace-matching on already-literal-masked source so braces
/// in strings cannot confuse the matcher.
fn mask_test_items(masked: &str) -> String {
    let bytes = masked.as_bytes();
    let mut out = masked.to_string();
    let mut search_from = 0;
    while let Some(found) = masked[search_from..].find("#[cfg(") {
        let attr_start = search_from + found;
        let Some(attr_close) = masked[attr_start..].find(']') else {
            break;
        };
        let attr_end = attr_start + attr_close + 1;
        let attr = &masked[attr_start..attr_end];
        search_from = attr_end;
        if !attr.contains("test") {
            continue;
        }
        // Find the annotated item's body: the first `{` before any `;` (a `;`
        // first means a braceless item — only the attribute itself is blanked).
        let mut j = attr_end;
        let body_start = loop {
            if j >= bytes.len() {
                break None;
            }
            match bytes[j] {
                b'{' => break Some(j),
                b';' => break None,
                _ => j += 1,
            }
        };
        let Some(body_start) = body_start else {
            blank_region(&mut out, attr_start, attr_end);
            continue;
        };
        let mut depth = 0usize;
        let mut k = body_start;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let body_end = (k + 1).min(bytes.len());
        blank_region(&mut out, attr_start, body_end);
        search_from = body_end;
    }
    out
}

/// Overwrites `out[start..end]` with spaces, preserving newlines.
fn blank_region(out: &mut String, start: usize, end: usize) {
    let blanked: String = out[start..end]
        .chars()
        .map(|c| if c == '\n' { '\n' } else { ' ' })
        .collect();
    out.replace_range(start..end, &blanked);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_masking_preserves_lines_and_blanks_tokens() {
        let src = "let a = \"panic!\"; // panic!\n/* panic!\n   panic! */ let b = 'x';\n";
        let masked = mask_literals(src);
        assert_eq!(masked.lines().count(), src.lines().count());
        assert!(!masked.contains("panic!"));
        assert!(masked.contains("let a ="));
        assert!(masked.contains("let b ="));
    }

    #[test]
    fn raw_strings_and_escapes_are_masked() {
        let src = "let s = r#\"x.unwrap()\"#; let t = \"\\\".unwrap()\";";
        let masked = mask_literals(src);
        assert!(!masked.contains(".unwrap()"));
    }

    #[test]
    fn cfg_test_items_are_blanked() {
        let src =
            "fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\nfn also_hot() {}\n";
        let masked = mask_test_items(&mask_literals(src));
        assert!(!masked.contains("unwrap"));
        assert!(masked.contains("fn hot()"));
        assert!(masked.contains("fn also_hot()"));
        assert_eq!(masked.lines().count(), src.lines().count());
    }

    #[test]
    fn seeded_panic_violation_is_reported_with_file_and_line() {
        let src = "fn serve() {\n    let v = compute().unwrap();\n}\n";
        // The serve loop and both halves of the online planning loop under it.
        for path in [
            "crates/serve/src/server.rs",
            "crates/core/src/online.rs",
            "crates/core/src/mdp/env.rs",
        ] {
            let findings = scan_source(path, src);
            assert_eq!(findings.len(), 1, "{path}");
            assert_eq!(findings[0].rule, "no-panic");
            assert_eq!(findings[0].line, 2);
            assert!(findings[0].source_line.contains(".unwrap()"));
        }
    }

    #[test]
    fn panic_in_tests_or_cold_paths_is_not_reported() {
        let in_tests = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        assert!(scan_source("crates/serve/src/server.rs", in_tests).is_empty());
        // Same token in a non-hot-path module: no finding.
        let cold = "fn setup() { x.unwrap(); }\n";
        assert!(scan_source("crates/serve/src/lib.rs", cold).is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_trip_the_panic_rule() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); c.unwrap_or_default(); }\n";
        assert!(scan_source("crates/vizdb/src/exec/executor.rs", src).is_empty());
        // And the same tokens *do* trip it when they panic.
        let bad = "fn f() { a.unwrap(); }\n";
        assert_eq!(
            scan_source("crates/vizdb/src/exec/executor.rs", bad).len(),
            1
        );
    }

    /// The serve layer's work queue holds the sync primitives, `exec/`, the
    /// selection modules and the estimators none — a request's kernels and
    /// estimates run on the thread serving it.
    #[test]
    fn every_exec_module_is_a_hot_path_and_only_the_work_queue_is_concurrent() {
        let bad = "fn f() { a.unwrap(); }\n";
        let exec = ["executor", "reference", "compiled", "pricing", "mod"];
        let paths = exec.map(|module| format!("crates/vizdb/src/exec/{module}.rs"));
        let selection = [
            "bitmap.rs",
            "index/btree.rs",
            "index/rtree.rs",
            "index/inverted.rs",
        ]
        .map(|module| format!("crates/vizdb/src/{module}"));
        let qte = QTE_HOT_PATH.map(String::from);
        for path in paths
            .iter()
            .chain(&selection)
            .chain(&qte)
            .chain([&"crates/serve/src/queue.rs".to_string()])
        {
            let findings = scan_source(path, bad);
            assert_eq!(findings.len(), 1, "{path} must be under the no-panic rule");
            assert_eq!(findings[0].rule, "no-panic");
            assert_eq!(
                is_facade_module(path),
                path.ends_with("queue.rs"),
                "{path}: only the work queue module holds sync primitives"
            );
        }
    }

    #[test]
    fn wall_clock_reads_in_vizdb_are_reported() {
        let src = "fn cost() { let t = std::time::Instant::now(); }\n";
        let findings = scan_source("crates/vizdb/src/timing.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "no-wall-clock");
        // Only vizdb runs on the simulated clock: other crates are not in scope.
        assert!(scan_source("crates/serve/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn raw_sync_imports_are_reported_but_arc_and_scope_are_exempt() {
        let bad = "use std::sync::Mutex;\nuse parking_lot::RwLock;\nuse std::thread::spawn;\n";
        let findings = scan_source("crates/vizdb/src/cache.rs", bad);
        assert_eq!(findings.len(), 3);
        assert!(findings.iter().all(|f| f.rule == "sync-facade"));

        let ok = "use std::sync::Arc;\nstd::thread::scope(|s| {});\nuse crate::sync::Mutex;\n";
        assert!(scan_source("crates/vizdb/src/cache.rs", ok).is_empty());
    }

    #[test]
    fn the_build_once_slot_goes_through_the_facade() {
        let raw = "use std::sync::OnceLock;\n";
        let findings = scan_source("crates/vizdb/src/storage/cells.rs", raw);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "sync-facade");
        let facade = "use crate::sync::RwLock;\n";
        assert!(scan_source("crates/vizdb/src/storage/cells.rs", facade).is_empty());
    }

    #[test]
    fn mixed_arc_import_still_trips_the_facade_rule() {
        let src = "use std::sync::{Arc, Mutex};\n";
        let findings = scan_source("crates/vizdb/src/sharded/merge.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "sync-facade");
    }

    #[test]
    fn allowlist_permits_by_rule_path_and_fragment() {
        let allows = parse_allowlist(
            "# comment\n\
             no-panic crates/vizdb/src/exec.rs .expect(\"index\n\
             no-wall-clock crates/vizdb/src/special.rs\n",
        );
        let finding = Finding {
            rule: "no-panic",
            path: "crates/vizdb/src/exec.rs".into(),
            line: 3,
            message: String::new(),
            source_line: "let i = idx.expect(\"index built before use\");".into(),
        };
        assert!(allows.iter().any(|a| a.permits(&finding)));
        let other = Finding {
            source_line: "let i = idx.expect(\"something else\");".into(),
            ..finding.clone()
        };
        assert!(!allows.iter().any(|a| a.permits(&other)));
    }

    #[test]
    fn the_live_workspace_passes_the_lint() {
        // The real tree, the real allowlist: the invariant CI enforces.
        assert_eq!(run_lint(&workspace_root()), Ok(()));
    }
}
