//! The five lint rules.
//!
//! Each rule walks the token stream from [`crate::lex`], skips
//! `#[cfg(test)]` ranges, and emits [`Diagnostic`]s with byte spans so
//! the shared renderer produces caret snippets. Whitelists are matched
//! against workspace-relative paths with forward slashes.

use crate::lex::Lexed;
use chameleon_rules::diag::{Diagnostic, Severity, Span};

/// Files allowed to read wall clocks: the telemetry clock plumbing (the
/// single sanctioned source of timestamps), the Chrome trace exporter
/// (export-only, after the run), and the benchmark harness.
const WALLCLOCK_OK: &[&str] = &[
    "crates/telemetry/src/lib.rs",
    "crates/telemetry/src/trace.rs",
    "crates/telemetry/src/chrome.rs",
];

/// Crates whose results must be independent of hash-seed iteration order.
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/heap/",
    "crates/core/",
    "crates/rules/",
    "crates/profiler/",
];

/// Files allowed to launch threads: the parallel runtime's worker pool.
const THREAD_OK: &[&str] = &["crates/core/src/parallel.rs"];

fn span(lx: &Lexed, from: usize, to: usize) -> Span {
    let a = &lx.toks[from];
    let b = &lx.toks[to];
    Span::new(a.off, b.off + b.len)
}

/// `wallclock`: `Instant::now` / `SystemTime` outside the whitelist.
pub fn wallclock(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if path.starts_with("shims/") || WALLCLOCK_OK.contains(&path) {
        return;
    }
    for i in 0..lx.toks.len() {
        if !lx.active(i) {
            continue;
        }
        if lx.path2(i, "Instant", "now") {
            out.push(Diagnostic::new(
                Severity::Error,
                "wallclock",
                "Instant::now() outside the telemetry clock: wall-clock reads make \
                 profiles and decisions nondeterministic across runs",
                span(lx, i, i + 3),
            ));
        } else if lx.ident(i) == Some("SystemTime") {
            out.push(Diagnostic::new(
                Severity::Error,
                "wallclock",
                "SystemTime outside the telemetry clock: wall-clock reads make \
                 profiles and decisions nondeterministic across runs",
                span(lx, i, i),
            ));
        }
    }
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// `hashmap-iter`: iteration over identifiers known (in this file) to be
/// `HashMap`/`HashSet` typed, inside the deterministic crates. Escape
/// hatch: a `// hashmap-iter-ok:` comment within three lines above.
pub fn hashmap_iter(path: &str, _src: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if !DETERMINISTIC_CRATES.iter().any(|p| path.starts_with(p)) {
        return;
    }
    // Pass 1: collect names declared or initialized as HashMap/HashSet.
    let mut tracked: Vec<String> = Vec::new();
    for i in 0..lx.toks.len() {
        let Some(name) = lx.ident(i) else { continue };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        if lx.punct(i + 1, '<') {
            // Type position: walk back over `&`, `mut` and path segments
            // (`std :: collections ::`) to the `ident :` declaration.
            let mut j = i;
            while j >= 2 {
                if lx.punct(j - 1, ':')
                    && lx.punct(j - 2, ':')
                    && lx.ident(j.wrapping_sub(3)).is_some()
                {
                    j -= 3;
                } else if lx.punct(j - 1, '&') || lx.ident(j - 1) == Some("mut") {
                    j -= 1;
                } else {
                    break;
                }
            }
            if j >= 2 && lx.punct(j - 1, ':') && !lx.punct(j - 2, ':') {
                if let Some(owner) = lx.ident(j - 2) {
                    tracked.push(owner.to_string());
                }
            }
        } else if lx.punct(i + 1, ':') && lx.punct(i + 2, ':') {
            // Value position: `ident = HashMap::new()` (allow `let [mut]`).
            let mut j = i;
            if j >= 1 && lx.punct(j - 1, '=') {
                j -= 1;
                if let Some(owner) = lx.ident(j.wrapping_sub(1)) {
                    tracked.push(owner.to_string());
                }
            }
        }
    }
    tracked.sort();
    tracked.dedup();

    // Pass 2: flag `tracked.iter()`-family calls and `for … in tracked`.
    for i in 0..lx.toks.len() {
        if !lx.active(i) {
            continue;
        }
        let Some(name) = lx.ident(i) else { continue };
        let flagged = if tracked.iter().any(|t| t == name) {
            if lx.punct(i + 1, '.') && lx.ident(i + 2).is_some_and(|m| ITER_METHODS.contains(&m)) {
                Some((i + 2, lx.ident(i + 2).unwrap().to_string()))
            } else {
                None
            }
        } else if name == "for" {
            // `for pat in [&][mut] tracked {` — direct iteration without
            // a method call.
            let mut j = i + 1;
            let mut found = None;
            while j < lx.toks.len().min(i + 10) {
                if lx.ident(j) == Some("in") {
                    let mut k = j + 1;
                    while lx.punct(k, '&') || lx.ident(k) == Some("mut") {
                        k += 1;
                    }
                    if let Some(target) = lx.ident(k) {
                        if tracked.iter().any(|t| t == target) && lx.punct(k + 1, '{') {
                            found = Some((k, "for-in".to_string()));
                        }
                    }
                    break;
                }
                j += 1;
            }
            found
        } else {
            None
        };
        if let Some((at, how)) = flagged {
            let line = lx.line_of(lx.toks[at].off);
            if lx.comment_near("hashmap-iter-ok:", line, 3) {
                continue;
            }
            out.push(Diagnostic::new(
                Severity::Error,
                "hashmap-iter",
                format!(
                    "hash-ordered iteration (`{how}`) in a deterministic crate: the \
                     visit order depends on the hash seed; sort first or annotate \
                     with `// hashmap-iter-ok: <why order cannot leak>`"
                ),
                span(lx, i, at),
            ));
        }
    }
}

const COUNTER_OPS: &[&str] = &["fetch_add", "fetch_sub", "fetch_max", "fetch_min"];

/// `relaxed-justification`: every `Ordering::Relaxed` in product crates
/// must be a counter op, target a same-file counter, or carry a
/// `// relaxed:` comment within three lines above.
pub fn relaxed_justification(path: &str, _src: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if !path.starts_with("crates/") {
        return;
    }
    // Same-file counters: receivers of fetch_add/fetch_sub/fetch_max/min.
    let mut counters: Vec<String> = Vec::new();
    for i in 0..lx.toks.len() {
        if lx.ident(i).is_some_and(|m| COUNTER_OPS.contains(&m)) && i >= 2 && lx.punct(i - 1, '.') {
            if let Some(recv) = lx.ident(i - 2) {
                counters.push(recv.to_string());
            }
        }
    }
    counters.sort();
    counters.dedup();

    for i in 0..lx.toks.len() {
        if !lx.active(i) || !lx.path2(i, "Ordering", "Relaxed") {
            continue;
        }
        // A counter RMW in the preceding window justifies itself.
        let lo = i.saturating_sub(8);
        let mut justified = (lo..i).any(|j| lx.ident(j).is_some_and(|m| COUNTER_OPS.contains(&m)));
        // A load/store whose receiver is a same-file counter is also fine:
        // reading a monotonic counter is order-insensitive by design.
        if !justified {
            let lo = i.saturating_sub(12);
            for j in (lo..i).rev() {
                if lx.ident(j).is_some_and(|m| m == "load" || m == "store")
                    && j >= 2
                    && lx.punct(j - 1, '.')
                {
                    if let Some(recv) = lx.ident(j - 2) {
                        justified = counters.iter().any(|c| c == recv);
                    }
                    break;
                }
            }
        }
        if justified {
            continue;
        }
        let line = lx.line_of(lx.toks[i].off);
        if lx.comment_near("relaxed:", line, 3) {
            continue;
        }
        out.push(Diagnostic::new(
            Severity::Error,
            "relaxed-justification",
            "Ordering::Relaxed on a non-counter access without a `// relaxed:` \
             justification: explain why no happens-before edge is needed here",
            span(lx, i, i + 3),
        ));
    }
}

/// `unsafe-budget`: no `unsafe` anywhere, and every crate root (a
/// `src/lib.rs`, `src/main.rs` or `src/bin/*.rs`) must carry
/// `#![forbid(unsafe_code)]`.
pub fn unsafe_budget(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    for i in 0..lx.toks.len() {
        if lx.active(i) && lx.ident(i) == Some("unsafe") {
            out.push(Diagnostic::new(
                Severity::Error,
                "unsafe-budget",
                "`unsafe` in a workspace that forbids it: use a safe std \
                 primitive instead",
                span(lx, i, i),
            ));
        }
    }
    let crate_root =
        path.ends_with("src/lib.rs") || path.ends_with("src/main.rs") || path.contains("src/bin/");
    let forbids = lx
        .toks
        .windows(3)
        .any(|w| w[0].text == "forbid" && w[2].text == "unsafe_code");
    if crate_root && !forbids {
        out.push(Diagnostic::new(
            Severity::Error,
            "unsafe-budget",
            "crate root lacks `#![forbid(unsafe_code)]`",
            Span::new(0, 1),
        ));
    }
}

/// `thread-launch`: `thread::spawn` / `thread::scope` outside the
/// parallel runtime, the GC, and the shims.
pub fn thread_launch(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if path.starts_with("shims/") || THREAD_OK.contains(&path) {
        return;
    }
    for i in 0..lx.toks.len() {
        if !lx.active(i) {
            continue;
        }
        for m in ["spawn", "scope"] {
            if lx.path2(i, "thread", m) {
                out.push(Diagnostic::new(
                    Severity::Error,
                    "thread-launch",
                    format!(
                        "thread::{m} outside the parallel runtime: ad-hoc threads \
                         bypass the deterministic partition merge and the model \
                         checker's coverage"
                    ),
                    span(lx, i, i + 3),
                ));
            }
        }
    }
}
