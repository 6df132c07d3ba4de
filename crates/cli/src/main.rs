//! `chameleon` — command-line front end to the Chameleon reproduction.
//!
//! ```text
//! chameleon list-workloads
//! chameleon profile <workload> [--depth N] [--sample N] [--top K] [--throwable]
//!                   [--threads N] [--emit events,timeline,heapprof] [--every N] [--out DIR]
//! chameleon optimize <workload> [--top K] [--manual-lazy]
//! chameleon online <workload> [--eval-every N] [--confirm K]
//! chameleon serve (--stdin | --socket PATH) [--eval-every N] [--confirm K]
//! chameleon rules check <file.rules>
//! chameleon rules eval <file.rules> <workload>
//! chameleon lint <file.rules | --builtin> [--format text|json] [--deny LEVEL]
//! ```
//!
//! The authoritative subcommand list lives in [`args::SUBCOMMANDS`]; the
//! `--help` text and the options each subcommand accepts are derived from
//! it. The experiment-matrix fleet has its own front end, the
//! `eval_matrix` binary of `chameleon-bench`.

#![forbid(unsafe_code)]

mod args;

use args::Invocation;
use chameleon_collections::factory::{CaptureConfig, CaptureMethod};
use chameleon_core::{
    default_threads, run_online, serve_stream, Chameleon, Env, EnvConfig, OnlineConfig,
    ParallelConfig, ParallelError, ServeConfig, Server, Workload,
};
use chameleon_heap::HeapProfConfig;
use chameleon_profiler::HeapProfile;
use chameleon_rules::{analyze, parse_rules, RuleEngine, Severity, BUILTIN_RULES, DEFAULT_PARAMS};
use chameleon_telemetry::{chrome, DriftConfig, Telemetry, Tracer};
use chameleon_workloads::Bloat;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

/// Builds the `--help` text from the subcommand registry, so the help can
/// never drift from the set of dispatchable commands.
fn usage() -> String {
    let mut s = String::from(
        "chameleon — adaptive selection of collections (PLDI 2009 reproduction)\n\nUSAGE:\n",
    );
    for c in args::SUBCOMMANDS {
        let words = c.path.join(" ");
        if c.usage.is_empty() {
            let _ = writeln!(s, "  chameleon {words}");
        } else {
            let _ = writeln!(s, "  chameleon {words:<14} {}", c.usage);
        }
    }
    s.push_str(OPTIONS_HELP);
    s
}

const OPTIONS_HELP: &str = "
WORKLOADS:
  tvla, bloat, fop, findbugs, pmd, soot, synthetic, phase-shift

OPTIONS:
  --depth N       partial allocation-context depth (default 2)
  --sample N      capture one allocation context in every N (default 1)
  --throwable     use the expensive Throwable-based capture
  --top K         show/apply only the top-K suggestions
  --eval-every N  online/serve: re-evaluate rules every N deaths (default 64)
  --shutoff-below B  online/serve: stop capturing contexts for types whose
                  observed potential is below B bytes (§4.2)
  --confirm K     online/serve: a policy change must win K consecutive
                  evaluations before it is installed (default 2)
  --min-potential B  online/serve: ignore suggestions whose potential is
                  below B bytes (default 0)
  --stdin         serve: read JSONL commands from stdin, one response
                  line per command (replay-deterministic)
  --socket PATH   serve: accept JSONL command streams on a Unix socket,
                  one client at a time
  --manual-lazy   bloat only: include the paper's manual lazy-allocation fix
  --emit LIST     profile: write artifacts into --out: events (events.jsonl),
                  timeline (timeline.json, Chrome/Perfetto spans), heapprof
                  (snapshots.jsonl, flamegraph.folded, summary.json; each
                  suggestion also cites its peak retained GC cycle)
  --every N       profile --emit heapprof: snapshot every N GC cycles
                  (default 1; must be at least 1)
  --threads N     profile: run the workload as N partitions
                  on N mutator threads (must be at least 1; 1 = sequential).
                  Default `auto`: the host's available parallelism, falling
                  back to a sequential run when the workload has no
                  partition plan. An explicit N > 1 requires the workload
                  to support partitioning (tvla and synthetic do). Results
                  depend only on N, never on thread scheduling.
  --out DIR       profile: artifact directory (default profile-<workload>)
  --builtin       lint: analyze the built-in Table 2 rule set
  --format F      lint: output `text` (default) or `json`
  --deny LEVEL    lint: exit non-zero on findings at or above
                  `info`, `warn`, or `error` (default error)
";

fn workload(name: &str) -> Option<Box<dyn Workload>> {
    chameleon_workloads::by_name(name)
}

fn env_from(inv: &Invocation) -> Result<EnvConfig, String> {
    Ok(EnvConfig {
        capture: CaptureConfig {
            method: if inv.flag("throwable") {
                CaptureMethod::Throwable
            } else {
                CaptureMethod::Jvmti
            },
            depth: inv.num("depth", 2)? as usize,
            sample_every: sample_every(inv)?,
        },
        ..EnvConfig::default()
    })
}

/// `--sample N`: capture every N-th allocation, `N` in `1..=u32::MAX`.
fn sample_every(inv: &Invocation) -> Result<u32, String> {
    let n = inv.num_at_least_one("sample", 1)?;
    u32::try_from(n).map_err(|_| {
        format!(
            "option --sample must be at most {} (valid range: 1..={}), got {n}",
            u32::MAX,
            u32::MAX
        )
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let inv = args::parse(raw)?;
    if inv.flag("help") || (inv.command.is_empty() && inv.positional.is_empty()) {
        print!("{}", usage());
        return Ok(());
    }
    match inv.command.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["list-workloads"] => {
            for name in chameleon_workloads::NAMES {
                println!("{name}");
            }
            Ok(())
        }
        ["help"] => {
            print!("{}", usage());
            Ok(())
        }
        ["profile"] => cmd_profile(&inv),
        ["optimize"] => cmd_optimize(&inv),
        ["online"] => cmd_online(&inv),
        ["serve"] => cmd_serve(&inv),
        ["rules", "check"] => cmd_rules_check(&inv),
        ["rules", "eval"] => cmd_rules_eval(&inv),
        ["lint"] => cmd_lint(&inv),
        _ => Err(format!("unknown command; try --help\n\n{}", usage())),
    }
}

fn required_workload(inv: &Invocation, pos: usize) -> Result<Box<dyn Workload>, String> {
    let name = inv
        .positional
        .get(pos)
        .ok_or_else(|| "missing workload name (try list-workloads)".to_owned())?;
    workload(name).ok_or_else(|| format!("unknown workload `{name}` (try list-workloads)"))
}

/// Artifact names `profile --emit` accepts.
const ARTIFACTS: [&str; 3] = ["events", "timeline", "heapprof"];

/// `chameleon profile <workload>`: profile the workload, print its top
/// contexts and suggestions, and write the `--emit` artifacts into
/// `--out DIR`. Observation never changes the simulated run: every
/// artifact comes from the same GC schedule as a bare profile.
fn cmd_profile(inv: &Invocation) -> Result<(), String> {
    let w = required_workload(inv, 0)?;
    let top = inv.num("top", 10)? as usize;
    // `--threads` absent or `auto`: the host's available parallelism,
    // degrading to a sequential run for a workload without a partition
    // plan. An explicit count must be honoured (the user asked for
    // parallelism the workload may not give).
    let (threads, explicit) = match inv.options.get("threads").map(String::as_str) {
        None | Some("auto") => (default_threads(), false),
        Some(_) => (inv.num_at_least_one("threads", 1)? as usize, true),
    };
    let emit: Vec<&str> = inv
        .options
        .get("emit")
        .map_or_else(Vec::new, |v| v.split(',').collect());
    if let Some(bad) = emit.iter().find(|a| !ARTIFACTS.contains(a)) {
        return Err(format!(
            "unknown artifact `{bad}` in --emit; valid artifacts: {}",
            ARTIFACTS.join(", ")
        ));
    }
    let every = inv.num_at_least_one("every", 1)?;
    let out = inv
        .options
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("profile-{}", w.name()));
    let telemetry = emit.contains(&"events").then(Telemetry::new);
    let tracer = emit.contains(&"timeline").then(Tracer::new);
    let heapprof = emit.contains(&"heapprof");
    let chameleon = Chameleon::new().with_profile_config(EnvConfig {
        telemetry: telemetry.clone(),
        tracer: tracer.clone(),
        heapprof: heapprof.then_some(HeapProfConfig { every }),
        ..env_from(inv)?
    });
    let env =
        match chameleon.profile_env_parallel(w.as_ref(), ParallelConfig::with_threads(threads)) {
            Ok(env) => env,
            Err(ParallelError::NotPartitionable { .. }) if !explicit => {
                chameleon.profile_env(w.as_ref())
            }
            Err(e) => return Err(e.to_string()),
        };
    let report = env.report();
    println!(
        "{} — {} context(s), peak live {} B",
        w.name(),
        report.contexts.len(),
        report.peak_live()
    );
    print!("{}", report.format_top_contexts(top));
    println!("\nsuggestions:");
    let suggestions = chameleon
        .engine()
        .evaluate_traced(&report, telemetry.as_ref());
    let profile = heapprof.then(|| HeapProfile::from_heap(&env.heap, SERIES_CAPACITY));
    for s in suggestions.iter().take(top) {
        println!("  {s}");
        if let Some(p) = &profile {
            if let Some((cycle, retained)) = p.peak(s.ctx) {
                println!("      peak retained {retained} B at GC cycle {cycle}");
            }
        }
    }
    if let Some(t) = &telemetry {
        let log = t.dump_jsonl();
        write_artifact(&out, "events.jsonl", &log)?;
        println!(
            "\nevents written to {out}/events.jsonl ({} line(s))",
            log.lines().count()
        );
    }
    if let Some(tr) = &tracer {
        let records = tr.records();
        write_artifact(&out, "timeline.json", &chrome::render(&records))?;
        let (lanes, spans, instants) = chrome::summarize(&records);
        println!(
            "timeline written to {out}/timeline.json: {spans} span(s), {instants} instant(s) \
             across {lanes} lane(s) — load in chrome://tracing or https://ui.perfetto.dev"
        );
    }
    if let Some(p) = &profile {
        println!();
        write_heapprof_artifacts(w.as_ref(), &env, p, every, top, &out)?;
    }
    Ok(())
}

/// Writes `data` to `<out>/<name>`, creating `out` first.
fn write_artifact(out: &str, name: &str, data: &str) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let path = format!("{out}/{name}");
    std::fs::write(&path, data).map_err(|e| format!("cannot write {path}: {e}"))
}

/// How many points each per-context series keeps before 2:1 downsampling
/// kicks in (see `chameleon_telemetry::SeriesStore`).
const SERIES_CAPACITY: usize = 256;

/// Reports a heap profile and writes its artifacts. A profile with no
/// snapshots is a one-line report and a successful exit, not a failure
/// (this used to panic on `peak_snapshot()` further down).
fn write_heapprof_artifacts(
    w: &dyn Workload,
    env: &Env,
    profile: &HeapProfile,
    every: u64,
    top: usize,
    out: &str,
) -> Result<(), String> {
    if profile.snapshots.is_empty() {
        println!(
            "{} — no snapshots captured: the run performed {} GC cycle(s) with --every {every}",
            w.name(),
            env.heap.gc_count()
        );
        return Ok(());
    }

    let jsonl = profile.snapshots_jsonl(&env.heap);
    chameleon_telemetry::json::validate_jsonl(&jsonl, &["ev", "t", "cycle", "contexts"])
        .map_err(|e| format!("internal error: snapshot JSONL failed validation: {e}"))?;
    let drift_cfg = DriftConfig::default();
    let summary = profile.summary_json(&env.heap, top, &drift_cfg);
    let flamegraph = profile.flamegraph(&env.heap);

    write_artifact(out, "snapshots.jsonl", &jsonl)?;
    write_artifact(out, "flamegraph.folded", &flamegraph)?;
    write_artifact(out, "summary.json", &summary)?;

    let peak = profile.peak_snapshot().expect("snapshots is non-empty");
    println!(
        "heap profile written to {out}/snapshots.jsonl, flamegraph.folded, summary.json: \
         {} snapshot(s) (every {every} cycle(s)), peak live {} B at cycle {}",
        profile.snapshots.len(),
        peak.live_bytes,
        peak.cycle
    );
    for f in profile.drift(&drift_cfg) {
        println!(
            "  drift (> {:.0}% growth): {}: {:.0} B -> {:.0} B (+{:.0}%)",
            drift_cfg.growth_pct,
            profile.key_label(&env.heap, f.key),
            f.first_mean,
            f.last_mean,
            f.growth_pct
        );
    }
    Ok(())
}

fn cmd_optimize(inv: &Invocation) -> Result<(), String> {
    let mut w = required_workload(inv, 0)?;
    if inv.flag("manual-lazy") {
        if w.name() != "bloat" {
            return Err(format!(
                "option --manual-lazy applies only to `bloat`, not `{}`",
                w.name()
            ));
        }
        w = Box::new(Bloat {
            manual_lazy: true,
            ..Bloat::default()
        });
    }
    let mut chameleon = Chameleon::new().with_profile_config(env_from(inv)?);
    if let Some(k) = inv.opt_num("top")? {
        chameleon = chameleon.with_top_k(k as usize);
    }
    let r = chameleon.optimize(w.as_ref());
    println!(
        "{} — applied {} of {} suggestion(s)",
        r.name,
        r.applied.len(),
        r.suggestions.len()
    );
    println!(
        "minimal heap : {} B -> {} B ({:.2}% saving)",
        r.min_heap_before,
        r.min_heap_after,
        r.space_improvement().pct()
    );
    println!(
        "running time : {} -> {} units ({:.2}% faster; GCs {} -> {})",
        r.time_before.sim_time,
        r.time_after.sim_time,
        r.time_improvement().pct(),
        r.time_before.gc_count,
        r.time_after.gc_count
    );
    Ok(())
}

fn cmd_online(inv: &Invocation) -> Result<(), String> {
    let w = required_workload(inv, 0)?;
    let cfg = OnlineConfig {
        env: env_from(inv)?,
        eval_every_deaths: inv.num_at_least_one("eval-every", 64)?,
        shutoff_below_potential: inv.opt_num("shutoff-below")?,
        confirm_evals: inv.num_at_least_one("confirm", 2)?,
        min_potential_bytes: inv.num("min-potential", 0)?,
        ..OnlineConfig::default()
    };
    let r =
        run_online(w.as_ref(), Arc::new(RuleEngine::builtin()), &cfg).map_err(|e| e.to_string())?;
    println!(
        "{} — {} evaluations, {} replacement(s), {} revert(s), {} context capture(s)",
        w.name(),
        r.evaluations,
        r.replacements,
        r.reverts,
        r.metrics.capture_count
    );
    println!("simulated time: {} units", r.metrics.sim_time);
    println!("converged policy ({} update(s)):", r.converged_policy.len());
    for u in &r.converged_policy {
        println!("  {}:{} -> {:?}", u.src_type, u.frames.join(";"), u.kind);
    }
    Ok(())
}

/// `chameleon serve (--stdin | --socket PATH)`: host the multi-tenant
/// online-adaptation server over a JSONL command stream (see DESIGN.md
/// §17 for the command schema). The transport must be chosen explicitly —
/// a bare `serve` would otherwise sit silently waiting on stdin.
fn cmd_serve(inv: &Invocation) -> Result<(), String> {
    if !inv.positional.is_empty() {
        return Err(format!(
            "serve takes no positional operands (got `{}`)",
            inv.positional.join(" ")
        ));
    }
    let stdin = inv.flag("stdin");
    let socket = inv.options.get("socket").cloned();
    if stdin == socket.is_some() {
        return Err("serve requires exactly one transport: --stdin or --socket PATH".to_owned());
    }
    let cfg = ServeConfig {
        env: env_from(inv)?,
        eval_every_deaths: inv.num_at_least_one("eval-every", 64)?,
        confirm_evals: inv.num_at_least_one("confirm", 2)?,
        min_potential_bytes: inv.num("min-potential", 0)?,
        shutoff_below_potential: inv.opt_num("shutoff-below")?,
    };
    let mut server = Server::new(RuleEngine::builtin(), &cfg, Box::new(workload));
    if let Some(path) = socket {
        chameleon_core::serve_socket(&mut server, std::path::Path::new(&path))
            .map_err(|e| format!("serve --socket {path}: {e}"))
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        serve_stream(&mut server, stdin.lock(), stdout.lock())
            .map(|_| ())
            .map_err(|e| format!("serve --stdin: {e}"))
    }
}

fn cmd_rules_check(inv: &Invocation) -> Result<(), String> {
    let path = inv
        .positional
        .first()
        .ok_or_else(|| "missing rules file".to_owned())?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match parse_rules(&src) {
        Ok(rules) => {
            let mut engine = RuleEngine::new();
            engine.add_rules(&src).map_err(|e| e.render())?;
            println!("{} rule(s) OK:", rules.len());
            for r in rules {
                println!("  [{}] {}", r.category(), r);
            }
            Ok(())
        }
        Err(e) => Err(e.render()),
    }
}

/// `chameleon lint <file.rules | --builtin>`: run the whole-ruleset static
/// analyzer (satisfiability, shadowing, kind-soundness, parameter hygiene)
/// against the default parameter bindings.
fn cmd_lint(inv: &Invocation) -> Result<(), String> {
    let src = if inv.flag("builtin") {
        BUILTIN_RULES.to_owned()
    } else {
        let path = inv
            .positional
            .first()
            .ok_or_else(|| "missing rules file (or pass --builtin)".to_owned())?;
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    let deny = match inv.options.get("deny").map(String::as_str) {
        None => Severity::Error,
        Some(level) => Severity::parse(level)
            .ok_or_else(|| format!("bad --deny level `{level}` (use info, warn, or error)"))?,
    };
    let params = DEFAULT_PARAMS
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    let rules = parse_rules(&src).map_err(|e| e.render())?;
    let report = analyze(&rules, &params, &src);
    match inv.options.get("format").map(String::as_str) {
        None | Some("text") => println!("{}", report.render(&src)),
        Some("json") => println!("{}", report.to_json(&src)),
        Some(other) => return Err(format!("bad --format `{other}` (use text or json)")),
    }
    let denied = report
        .diagnostics
        .iter()
        .filter(|d| d.severity >= deny)
        .count();
    if denied > 0 {
        return Err(format!(
            "lint failed: {denied} finding(s) at or above `{deny}`"
        ));
    }
    Ok(())
}

fn cmd_rules_eval(inv: &Invocation) -> Result<(), String> {
    let path = inv
        .positional
        .first()
        .ok_or_else(|| "missing rules file".to_owned())?;
    let w = required_workload(inv, 1)?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut engine = RuleEngine::new();
    engine.add_rules(&src).map_err(|e| e.render())?;
    let chameleon = Chameleon::new()
        .with_engine(engine)
        .with_profile_config(env_from(inv)?);
    let report = chameleon.profile(w.as_ref());
    let suggestions = chameleon.engine().evaluate(&report);
    println!("{} suggestion(s) from {}:", suggestions.len(), path);
    for s in &suggestions {
        println!("  {s}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(s: &str) -> Result<(), String> {
        let args: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        run(&args)
    }

    #[test]
    fn unknown_workload_is_reported() {
        let err = run_str("profile nosuch").expect_err("fails");
        assert!(err.contains("unknown workload"));
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = run_str("frobnicate").expect_err("fails");
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn list_workloads_runs() {
        run_str("list-workloads").expect("ok");
    }

    #[test]
    fn profile_synthetic_runs() {
        run_str("profile synthetic --top 3").expect("ok");
    }

    /// A fresh temp directory for one test's `--out`.
    fn out_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn trace_writes_valid_jsonl() {
        // Explicit thread counts: the log must be complete whether the
        // workload runs sequentially or on partition children.
        for threads in [1, 2, 4] {
            let dir = out_dir(&format!("chameleon_cli_trace_test_{threads}"));
            run_str(&format!(
                "profile synthetic --emit events --out {} --threads {threads}",
                dir.display()
            ))
            .expect("ok");
            let log = std::fs::read_to_string(dir.join("events.jsonl")).expect("events written");
            let lines =
                chameleon_telemetry::json::validate_jsonl(&log, &["ev", "t"]).expect("valid JSONL");
            assert!(lines > 0, "trace must not be empty");
            assert!(log.contains("\"ev\":\"gc_cycle\""), "{log}");
            assert!(log.contains("\"ev\":\"rule_decision\""), "{log}");
            assert!(log.contains("\"ev\":\"workload_begin\""), "{log}");
            assert!(log.contains("\"ev\":\"metric\""), "{log}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn heapprof_writes_all_artifacts() {
        let dir = out_dir("chameleon_cli_heapprof_test");
        run_str(&format!(
            "profile tvla --threads 2 --emit heapprof --every 2 --out {}",
            dir.display()
        ))
        .expect("ok");
        let jsonl = std::fs::read_to_string(dir.join("snapshots.jsonl")).expect("jsonl");
        let lines = chameleon_telemetry::json::validate_jsonl(&jsonl, &["ev", "t", "cycle"])
            .expect("valid JSONL");
        assert!(lines > 0);
        let fg = std::fs::read_to_string(dir.join("flamegraph.folded")).expect("flamegraph");
        assert!(!fg.is_empty(), "flamegraph must be non-empty");
        for line in fg.lines() {
            let (_, weight) = line.rsplit_once(' ').expect("stack/weight split");
            weight.parse::<u64>().expect("weight parses");
        }
        let summary = std::fs::read_to_string(dir.join("summary.json")).expect("summary");
        chameleon_telemetry::json::parse(&summary).expect("summary parses");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeline_writes_perfetto_loadable_trace() {
        let dir = out_dir("chameleon_cli_timeline_test");
        run_str(&format!(
            "profile synthetic --threads 2 --emit timeline --out {}",
            dir.display()
        ))
        .expect("ok");
        let body = std::fs::read_to_string(dir.join("timeline.json")).expect("timeline written");
        let v = chameleon_telemetry::json::parse(&body).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        let has = |name: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
        };
        assert!(has("run_parallel"), "{body}");
        assert!(has("partition"), "{body}");
        assert!(has("gc"), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heapprof_with_timeline_writes_timeline_artifact() {
        let dir = out_dir("chameleon_cli_heapprof_timeline_test");
        run_str(&format!(
            "profile tvla --threads 2 --emit heapprof,timeline --every 2 --out {}",
            dir.display()
        ))
        .expect("ok");
        let body = std::fs::read_to_string(dir.join("timeline.json")).expect("timeline");
        let v = chameleon_telemetry::json::parse(&body).expect("valid JSON");
        assert!(!v.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
        assert!(body.contains("heap_snapshot_capture"), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_runs_on_mutator_threads() {
        run_str("profile synthetic --threads 2 --top 3").expect("ok");
        run_str("profile tvla --threads 2 --top 3").expect("ok");
    }

    #[test]
    fn zero_every_and_zero_threads_are_parse_errors() {
        // These used to be accepted and silently clamped to 1 deep in the
        // heap's snapshot collector.
        for cmd in [
            "profile synthetic --emit heapprof --every 0",
            "profile synthetic --threads 0",
            "profile synthetic --emit events --threads 0",
            "profile synthetic --emit heapprof --threads 0",
            "profile synthetic --sample 0",
            "online synthetic --sample 0",
            "online synthetic --eval-every 0",
            "serve --stdin --sample 0",
            "serve --stdin --eval-every 0",
        ] {
            let err = run_str(cmd).expect_err(cmd);
            assert!(err.contains("at least 1"), "{cmd}: {err}");
            assert!(err.contains("1.."), "{cmd}: {err}");
        }
        // A `--sample` past `u32::MAX` must not wrap to a small period.
        for cmd in [
            "profile synthetic --sample 4294967298",
            "online synthetic --sample 4294967296",
            "serve --stdin --sample 4294967298",
        ] {
            let err = run_str(cmd).expect_err(cmd);
            assert!(err.contains("--sample"), "{cmd}: {err}");
            assert!(err.contains("1..=4294967295"), "{cmd}: {err}");
        }
    }

    #[test]
    fn unknown_emit_artifact_lists_the_valid_ones() {
        let err = run_str("profile synthetic --emit events,flamegraph").expect_err("unknown");
        assert!(err.contains("unknown artifact `flamegraph`"), "{err}");
        assert!(err.contains("events, timeline, heapprof"), "{err}");
    }

    #[test]
    fn unpartitionable_workload_with_threads_is_one_line_error() {
        let err = run_str("profile bloat --threads 2").expect_err("bloat has no partition plan");
        assert!(err.contains("does not support partitioning"), "{err}");
        assert!(!err.contains('\n'), "one-line error expected: {err}");
    }

    #[test]
    fn mistyped_option_fails_fast() {
        let err = run_str("profile synthetic --to 3").expect_err("typo");
        assert!(err.contains("unknown option --to"), "{err}");
        assert!(err.contains("--top"), "{err}");
        // Every numeric option reports a bad value the same way.
        for (cmd, key, value) in [
            ("optimize synthetic --top x", "top", "x"),
            ("online synthetic --shutoff-below 1k", "shutoff-below", "1k"),
            ("serve --stdin --shutoff-below -1", "shutoff-below", "-1"),
        ] {
            let err = run_str(cmd).expect_err(cmd);
            assert_eq!(
                err,
                format!("option --{key} expects a number, got `{value}`")
            );
        }
        let err = run_str("optimize --manual-lazy").expect_err("no workload");
        assert!(err.contains("missing workload name"), "{err}");
        let err = run_str("optimize fop --manual-lazy").expect_err("not bloat");
        assert_eq!(
            err,
            "option --manual-lazy applies only to `bloat`, not `fop`"
        );
        // An option another subcommand reads is refused, not ignored.
        for (cmd, key, name) in [
            (
                "optimize findbugs --threads 4 --emit events",
                "threads",
                "optimize",
            ),
            (
                "profile synthetic --confirm 3 --socket /x",
                "confirm",
                "profile",
            ),
            ("lint --builtin --eval-every 3", "eval-every", "lint"),
            ("rules check x.rules --depth 3", "depth", "rules check"),
        ] {
            let err = run_str(cmd).expect_err(cmd);
            assert_eq!(err, format!("option --{key} does not apply to `{name}`"));
        }
    }

    #[test]
    fn lint_builtin_is_clean_at_any_deny_level() {
        run_str("lint --builtin").expect("builtin rules lint clean");
        run_str("lint --builtin --deny info").expect("clean even at --deny info");
        run_str("lint --builtin --format json --deny warn").expect("json format works");
    }

    #[test]
    fn lint_broken_example_fails_and_reports() {
        let example = |name: &str| format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
        let broken = example("broken.rules");
        let err = run_str(&format!("lint {broken}")).expect_err("errors denied by default");
        assert!(err.contains("lint failed"), "{err}");
        let err2 =
            run_str(&format!("lint {broken} --deny warn")).expect_err("warn level fails too");
        assert!(err2.contains("at or above `warn`"), "{err2}");
        // A clean file passes --deny warn despite unused-param infos...
        let custom = example("custom.rules");
        run_str(&format!("lint {custom} --deny warn")).expect("custom rules pass");
        // ...and those infos only bite at --deny info.
        let err3 = run_str(&format!("lint {custom} --deny info")).expect_err("infos denied");
        assert!(err3.contains("at or above `info`"), "{err3}");
    }

    #[test]
    fn lint_rejects_bad_flags_and_missing_file() {
        assert!(run_str("lint")
            .expect_err("no input")
            .contains("missing rules file"));
        assert!(run_str("lint --builtin --deny loud")
            .expect_err("bad level")
            .contains("bad --deny"));
        assert!(run_str("lint --builtin --format yaml")
            .expect_err("bad format")
            .contains("bad --format"));
    }

    #[test]
    fn help_lists_every_subcommand_exactly_once() {
        let text = usage();
        for c in args::SUBCOMMANDS {
            let words = c.path.join(" ");
            let count = text
                .lines()
                .filter(|l| {
                    l.strip_prefix("  chameleon ")
                        .is_some_and(|rest| rest == words || rest.starts_with(&format!("{words} ")))
                })
                .count();
            assert_eq!(count, 1, "`{words}` must appear exactly once in help");
        }
    }

    #[test]
    fn every_registered_subcommand_has_a_dispatch_arm() {
        // Each registry path must reach a real arm, never the catch-all
        // `unknown command` error. Commands that would otherwise do heavy
        // work are steered onto a fast error path first.
        for c in args::SUBCOMMANDS {
            let argv: Vec<String> = c.path.iter().map(|w| (*w).to_owned()).collect();
            if let Err(e) = run(&argv) {
                assert!(
                    !e.contains("unknown command"),
                    "`{}` has no dispatch arm: {e}",
                    c.path.join(" ")
                );
            }
        }
    }

    #[test]
    fn help_command_and_flag_both_work() {
        run_str("help").expect("help command");
        run_str("--help").expect("help flag");
    }

    #[test]
    fn rules_check_reports_diagnostics() {
        let dir = std::env::temp_dir();
        let path = dir.join("chameleon_cli_test.rules");
        std::fs::write(&path, "HashMap : maxSize < UNBOUND -> ArrayMap").expect("write");
        let err = run_str(&format!("rules check {}", path.display())).expect_err("unbound");
        assert!(err.contains("unbound parameter"), "{err}");
        std::fs::write(&path, r#"HashMap : maxSize < 8 -> ArrayMap "Space: ok""#).expect("write");
        run_str(&format!("rules check {}", path.display())).expect("valid");
    }

    #[test]
    fn heapprof_zero_snapshots_is_a_report_not_a_panic() {
        // Regression: a run that captured no snapshots used to reach
        // `.expect("snapshots is non-empty")` and panic. Now it prints a
        // one-line report, exits successfully, and writes no artifacts.
        let dir = std::env::temp_dir().join("chameleon_cli_heapprof_empty_test");
        let _ = std::fs::remove_dir_all(&dir);
        let w = workload("synthetic").unwrap();
        let env = Env::new(&EnvConfig::default()); // heap profiling off: no snapshots
        let profile = HeapProfile::from_heap(&env.heap, SERIES_CAPACITY);
        assert!(profile.snapshots.is_empty());
        write_heapprof_artifacts(
            w.as_ref(),
            &env,
            &profile,
            1_000_000,
            10,
            dir.to_str().unwrap(),
        )
        .expect("zero snapshots is a successful exit");
        assert!(
            !dir.exists(),
            "no artifacts should be written without snapshots"
        );
    }

    #[test]
    fn serve_requires_exactly_one_transport() {
        let err = run_str("serve").expect_err("bare serve must not block on stdin");
        assert!(err.contains("--stdin or --socket"), "{err}");
        assert!(!err.contains('\n'), "one-line error expected: {err}");
        let err = run_str("serve --stdin --socket /tmp/x").expect_err("both transports");
        assert!(err.contains("exactly one transport"), "{err}");
        let err = run_str("serve extra --stdin").expect_err("no positionals");
        assert!(err.contains("no positional operands"), "{err}");
    }

    /// Runs the recorded example session through a fresh in-process server,
    /// exactly as `chameleon serve --stdin` would.
    fn run_example_session() -> String {
        let script_path = format!(
            "{}/../../examples/serve_session.jsonl",
            env!("CARGO_MANIFEST_DIR")
        );
        let script = std::fs::read_to_string(&script_path).expect("example script present");
        let mut server = Server::new(
            RuleEngine::builtin(),
            &ServeConfig {
                eval_every_deaths: 50,
                ..ServeConfig::default()
            },
            Box::new(workload),
        );
        let mut out = Vec::new();
        let ended = chameleon_core::serve_stream(&mut server, script.as_bytes(), &mut out)
            .expect("in-memory stream");
        assert!(ended, "the example script ends with shutdown");
        String::from_utf8(out).expect("utf-8 responses")
    }

    #[test]
    fn example_serve_session_adapts_without_flapping_and_replays_identically() {
        let first = run_example_session();
        assert_eq!(first, run_example_session(), "byte-identical replay");

        use chameleon_telemetry::json::{parse, Value};
        let fleet_line = first
            .lines()
            .find(|l| l.contains("\"cmd\":\"fleet_report\""))
            .expect("fleet report present");
        let fleet = parse(fleet_line).expect("fleet report parses");
        let tenants = fleet.get("tenants").expect("tenants").as_obj().unwrap();
        assert_eq!(tenants.len(), 3);
        let field = |t: &Value, key: &str| t.get(key).and_then(Value::as_u64).expect(key);
        // Only tenant a changed phase: only it re-profiles.
        assert!(field(&tenants["a"], "drift_events") >= 1, "{first}");
        assert_eq!(field(&tenants["b"], "drift_events"), 0, "{first}");
        assert_eq!(field(&tenants["c"], "drift_events"), 0, "{first}");
        // Every tenant adapted, and no slot switched more than once per
        // phase (tenant a saw two phases, b and c one each).
        for (name, t) in tenants {
            assert!(field(t, "replacements") >= 1, "tenant {name}: {first}");
            let max = field(t, "max_switches");
            let phases = if name == "a" { 2 } else { 1 };
            assert!(
                max <= phases,
                "tenant {name} flapped: {max} switches over {phases} phase(s): {first}"
            );
        }
    }
}
