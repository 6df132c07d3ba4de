//! Determinism source-lint for the workspace.
//!
//! The parallel runtime's reproducibility contract rests on a handful of
//! source-level disciplines that `cargo test` can only probe dynamically:
//! no wall-clock reads on decision paths, no iteration over hash-ordered
//! containers in deterministic crates, no unexplained `Ordering::Relaxed`,
//! no `unsafe` outside the audited files, and no thread launches outside
//! the runtime. `devlint` enforces all five statically with a token-level
//! lexer — no syn, no external deps — and renders findings through the
//! same [`chameleon_rules::diag`] machinery the rule analyzer uses.
//!
//! Run it as `cargo run -p devlint` from the workspace root; it exits
//! nonzero when any error-severity finding exists, which is how CI gates
//! on it. The rules:
//!
//! * **`wallclock`** — `Instant::now` / `SystemTime` create run-to-run
//!   nondeterminism; they are confined to the telemetry clock plumbing
//!   and the shims (the criterion shim times micro-benchmarks). The
//!   end-to-end benchmark under `benchmark/` is outside the workspace.
//! * **`hashmap-iter`** — iterating a `HashMap`/`HashSet` in the
//!   deterministic crates (`heap`, `core`, `rules`, `profiler`) leaks
//!   hash-seed order into results. Sites that sort afterwards (or fold
//!   into an order-insensitive value) annotate with `// hashmap-iter-ok:`.
//! * **`relaxed-justification`** — every `Ordering::Relaxed` in product
//!   crates must be a monotonic-counter access (a receiver that is the
//!   target of `fetch_add`/`fetch_sub`/`fetch_max`/`fetch_min` in the
//!   same file) or carry a `// relaxed:` comment explaining why the
//!   weakest ordering is sound.
//! * **`unsafe-budget`** — `unsafe` appears only in four audited files,
//!   each capped at its reviewed count, and every occurrence sits under a
//!   `SAFETY:` comment. Crate roots must carry
//!   `#![deny(unsafe_op_in_unsafe_fn)]`.
//! * **`thread-launch`** — `thread::spawn` / `thread::scope` are owned by
//!   the parallel runtime (`core::parallel`), the evaluation matrix's cell
//!   runners and the shims;
//!   ad-hoc threads elsewhere bypass the partition merge and the model
//!   checker.
//!
//! `#[cfg(test)]` items are excluded wholesale: tests may spawn threads,
//! read clocks and iterate hash maps freely.

#![deny(unsafe_op_in_unsafe_fn)]

use chameleon_rules::diag::{Diagnostic, Severity, Span};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

mod lex;
mod rules;

pub use lex::{lex, Lexed, Tok, TokKind};

/// Lints one file. `path` is the workspace-relative path with forward
/// slashes (e.g. `crates/heap/src/gc.rs`); the per-rule whitelists match
/// against it.
pub fn check_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let lx = lex::lex(src);
    let mut out = Vec::new();
    rules::wallclock(path, &lx, &mut out);
    rules::hashmap_iter(path, src, &lx, &mut out);
    rules::relaxed_justification(path, src, &lx, &mut out);
    rules::unsafe_budget(path, src, &lx, &mut out);
    rules::thread_launch(path, &lx, &mut out);
    out
}

/// One finding bound to the file it came from, pre-rendered.
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// Severity of the underlying diagnostic.
    pub severity: Severity,
    /// Full rendered text (header, caret snippet, notes).
    pub rendered: String,
}

/// Walks the workspace source tree under `root` (`crates/*/src`,
/// `shims/*/src` and the facade crate's `src/`), lints every `.rs` file,
/// and returns all findings plus the number of files checked.
pub fn run(root: &Path) -> std::io::Result<(usize, Vec<Finding>)> {
    let mut files = Vec::new();
    for group in ["crates", "shims"] {
        let dir = root.join(group);
        if !dir.is_dir() {
            continue;
        }
        let mut members: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();

    let mut findings = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        for d in check_source(&rel, &src) {
            findings.push(Finding {
                path: rel.clone(),
                severity: d.severity,
                rendered: d.render(&src),
            });
        }
    }
    Ok((files.len(), findings))
}

/// Renders a report for `run`'s output: every finding prefixed with its
/// file, then a one-line summary. Returns the text and whether any
/// finding is an error.
pub fn report(files: usize, findings: &[Finding]) -> (String, bool) {
    let mut out = String::new();
    let mut errors = 0usize;
    for f in findings {
        if f.severity == Severity::Error {
            errors += 1;
        }
        let _ = writeln!(out, "{}: {}\n", f.path, f.rendered);
    }
    let _ = writeln!(
        out,
        "devlint: {} files checked, {} findings ({} errors)",
        files,
        findings.len(),
        errors
    );
    (out, errors > 0)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Keeps `Span` in the public surface for downstream callers building
/// their own diagnostics from lexer offsets.
pub fn span_of(tok: &Tok) -> Span {
    Span::new(tok.off, tok.off + tok.len)
}
