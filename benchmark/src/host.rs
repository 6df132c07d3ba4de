//! What a result depends on besides the program: the host's core count,
//! its speed at the time of the run, the process's memory high-water
//! mark, and the commit measured.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Cores the process may run on (1 when the runtime cannot tell).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall time of a fixed integer kernel, in ms (about 10 ms on a 2-core
/// x86-64 container). It does the same work on every commit, so a shift in
/// it between runs is the host, not the program.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for _ in 0..black_box(5_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit checked out at `repo`, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn commit(repo: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = repo.join(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_owned();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
