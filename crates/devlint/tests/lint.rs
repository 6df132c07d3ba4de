//! Rule-level tests for the determinism lint, plus the workspace
//! self-check: `cargo test -p devlint` fails if any source file in the
//! repository violates the concurrency contract, which makes the plain
//! test suite a lint gate even where CI scripts are not run.

use chameleon_rules::diag::Severity;
use devlint::check_source;

fn codes(path: &str, src: &str) -> Vec<&'static str> {
    check_source(path, src).iter().map(|d| d.code).collect()
}

// --- mutation (c) from the issue: inject a HashMap iteration into a
// --- deterministic crate and the lint must catch it.

#[test]
fn injected_hashmap_iteration_is_caught() {
    let src = r#"
use std::collections::HashMap;
pub fn sweep_order(live: &HashMap<u32, u64>) -> Vec<u32> {
    let mut out = Vec::new();
    for (id, _) in live.iter() {
        out.push(*id);
    }
    out
}
"#;
    let diags = check_source("crates/heap/src/gc.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "hashmap-iter");
    assert_eq!(diags[0].severity, Severity::Error);
    // The rendered finding points at the iteration site, not line 1.
    let rendered = diags[0].render(src);
    assert!(rendered.contains("live.iter"), "{rendered}");
}

#[test]
fn hashmap_iteration_in_nondeterministic_crate_is_fine() {
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<u32, u64>) -> u64 { m.values().sum() }\n";
    assert!(codes("crates/telemetry/src/metrics.rs", src).is_empty());
}

#[test]
fn hashmap_iteration_with_escape_comment_is_fine() {
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<u32, u64>) -> u64 {\n\
                   // hashmap-iter-ok: summing is order-insensitive.\n\
                   m.values().sum()\n\
               }\n";
    assert!(codes("crates/heap/src/x.rs", src).is_empty());
}

#[test]
fn for_loop_over_hashmap_is_caught() {
    let src = "use std::collections::HashMap;\n\
               pub fn f() {\n\
                   let m: HashMap<u32, u64> = HashMap::new();\n\
                   for x in &m { let _ = x; }\n\
               }\n";
    assert_eq!(codes("crates/core/src/x.rs", src), vec!["hashmap-iter"]);
}

#[test]
fn hashmap_iteration_in_tests_is_fine() {
    let src = "use std::collections::HashMap;\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   use super::*;\n\
                   fn f(m: &HashMap<u32, u64>) -> u64 { m.values().sum() }\n\
               }\n";
    assert!(codes("crates/heap/src/x.rs", src).is_empty());
}

// --- wallclock ---

#[test]
fn instant_now_is_caught_outside_the_clock() {
    let src = "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    assert_eq!(codes("crates/core/src/x.rs", src), vec!["wallclock"]);
    // Only the telemetry clock is allowed; the bench bins and the eval
    // matrix report simulated results and leave wall-clock time to the
    // end-to-end benchmark.
    assert!(codes("crates/telemetry/src/trace.rs", src).is_empty());
    // A bin is a crate root, so it carries the forbid attribute.
    let bin = format!("#![forbid(unsafe_code)]\n{src}");
    assert_eq!(codes("crates/bench/src/bin/x.rs", &bin), vec!["wallclock"]);
}

#[test]
fn instant_in_comment_or_string_is_fine() {
    let src = "// Instant::now() would be wrong here.\n\
               pub const HINT: &str = \"Instant::now\";\n";
    assert!(codes("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn system_time_is_caught() {
    let src = "pub fn f() -> u64 { let _ = std::time::SystemTime::now(); 0 }\n";
    assert_eq!(codes("crates/heap/src/x.rs", src), vec!["wallclock"]);
}

// --- relaxed-justification ---

#[test]
fn bare_relaxed_load_is_caught() {
    let src = "use std::sync::atomic::{AtomicBool, Ordering};\n\
               pub fn f(b: &AtomicBool) -> bool { b.load(Ordering::Relaxed) }\n";
    assert_eq!(
        codes("crates/heap/src/x.rs", src),
        vec!["relaxed-justification"]
    );
}

#[test]
fn counter_fetch_add_needs_no_comment() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               pub fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    assert!(codes("crates/heap/src/x.rs", src).is_empty());
}

#[test]
fn load_of_a_same_file_counter_needs_no_comment() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               pub fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n\
               pub fn read(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";
    assert!(codes("crates/heap/src/x.rs", src).is_empty());
}

#[test]
fn relaxed_comment_justifies() {
    let src = "use std::sync::atomic::{AtomicBool, Ordering};\n\
               pub fn f(b: &AtomicBool) -> bool {\n\
                   // relaxed: advisory flag, staleness is harmless.\n\
                   b.load(Ordering::Relaxed)\n\
               }\n";
    assert!(codes("crates/heap/src/x.rs", src).is_empty());
}

// --- unsafe-budget ---

#[test]
fn unsafe_outside_whitelist_is_caught() {
    let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let diags = check_source("crates/core/src/x.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "unsafe-budget");
}

#[test]
fn crate_root_without_forbid_is_caught() {
    for root in [
        "crates/workloads/src/lib.rs",
        "crates/cli/src/main.rs",
        "crates/bench/src/bin/fig2.rs",
    ] {
        let diags = check_source(root, "pub fn f() {}\n");
        assert_eq!(diags.len(), 1, "{root}: {diags:?}");
        assert!(diags[0].message.contains("forbid(unsafe_code)"));
        let allow = "#![allow(unsafe_code)]\npub fn f() {}\n";
        assert_eq!(codes(root, allow), vec!["unsafe-budget"], "{root}");
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(codes(root, ok).is_empty(), "{root}");
    }
    assert!(codes("crates/workloads/src/gen.rs", "pub fn f() {}\n").is_empty());
}

// --- thread-launch ---

#[test]
fn thread_spawn_outside_runtime_is_caught() {
    let src = "pub fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(codes("crates/heap/src/x.rs", src), vec!["thread-launch"]);
    assert!(codes("crates/core/src/parallel.rs", src).is_empty());
    assert_eq!(codes("crates/heap/src/gc.rs", src), vec!["thread-launch"]);
    assert!(codes("shims/rand/src/x.rs", src).is_empty());
    // The eval matrix runs its cells sequentially: no bench file may
    // launch threads.
    assert_eq!(
        codes("crates/bench/src/eval/run.rs", src),
        vec!["thread-launch"]
    );
}

#[test]
fn thread_spawn_in_tests_is_fine() {
    let src = "#[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn t() { std::thread::spawn(|| {}).join().unwrap(); }\n\
               }\n";
    assert!(codes("crates/heap/src/x.rs", src).is_empty());
}

// --- the gate itself ---

/// The whole workspace must be lint-clean. This is the same walk
/// `cargo run -p devlint` performs, so a violation anywhere fails the
/// plain test suite too.
#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let (files, findings) = devlint::run(&root).unwrap();
    assert!(files > 100, "walked only {files} files — wrong root?");
    let (text, failed) = devlint::report(files, &findings);
    assert!(!failed, "workspace has lint findings:\n{text}");
}
