//! Command line of the Chameleon benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- trace --workload profile-pmd
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare BASE… -- CHANGE…
//! ```

use chameleon_benchmark::harness::{self, Options};
use chameleon_benchmark::scenario::{self, bench_dir, expected_path, DEFAULT_SEED, NAMES};
use chameleon_benchmark::spec::{MetricSpec, Spec};
use chameleon_benchmark::{compare, counting::BodyLog, host};
use chameleon_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const USAGE: &str = "\
usage: chameleon-benchmark <command> [options]

  run      run workloads, each in a fresh child process, and print every
           end-to-end metric (per-layer metrics with --trace 1)
             --workload NAME   one workload (default: all, in BENCHMARK.json order)
             --seed N          input seed (default 1; only serve-mixed uses it)
             --seconds S       measuring time per workload (default: run_seconds)
             --trace 0|1       1: traced run, prints the per-layer ledger
             --smoke           two checked requests per workload, no metrics
             --chrome          with --trace 1: also write the last traced
                               request's Chrome trace next to the results
             --out FILE        results file (default: benchmark/results/…)
  trace    run --trace 1
  compare  BASE.json… -- CHANGE.json…   verdict per workload and metric
  expected regenerate benchmark/expected/ for the default seed";

/// A child that outlives this is killed: the whole run must stay within
/// three minutes.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

#[derive(Debug, Default)]
struct RunArgs {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    chrome: bool,
    chrome_file: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => r.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                r.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds {v:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {v}"));
                }
                r.seconds = Some(s);
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--smoke" => r.smoke = true,
            "--chrome" => r.chrome = true,
            "--chrome-file" => r.chrome_file = Some(PathBuf::from(value()?)),
            "--out" => r.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }
    Ok(r)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" => run(parse_run(rest)?),
        "trace" => run(RunArgs {
            trace: true,
            ..parse_run(rest)?
        }),
        "child" => child(parse_run(rest)?),
        "compare" => cmp(rest),
        "expected" => expected(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

/// The child process: one workload, result object as the last line.
fn child(a: RunArgs) -> Result<i32, String> {
    let result = harness::run(&Options {
        workload: a.workload.ok_or("child needs --workload")?,
        seed: a.seed.unwrap_or(DEFAULT_SEED),
        seconds: a.seconds.ok_or("child needs --seconds")?,
        trace: a.trace,
        smoke: a.smoke,
        chrome: a.chrome_file,
    })?;
    println!("{}", json::render(&result));
    Ok(0)
}

fn run_child(
    workload: &str,
    a: &RunArgs,
    seed: u64,
    seconds: f64,
    chrome: Option<&Path>,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if a.trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    if let Some(p) = chrome {
        cmd.arg("--chrome-file").arg(p);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the {workload} process: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!(
                "{workload} ran past {CHILD_TIMEOUT:?} and was stopped"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_owned())?
        .map_err(|e| format!("reading the {workload} process: {e}"))?;
    if !status.success() {
        return Err(format!("the {workload} process failed ({status})"));
    }
    let line = out
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("the {workload} process printed no result"))?;
    json::parse(line).map_err(|e| format!("{workload} result: {e}"))
}

fn metric<'a>(result: &'a Value, name: &str) -> Option<(f64, &'a str)> {
    let m = result.get("metrics")?.get(name)?;
    Some((m.get("value")?.as_f64()?, m.get("unit")?.as_str()?))
}

fn run(a: RunArgs) -> Result<i32, String> {
    let spec = Spec::load()?;
    let workloads = match &a.workload {
        Some(w) if spec.workloads.contains(w) => vec![w.clone()],
        Some(w) => {
            return Err(format!(
                "unknown workload {w:?} (have {:?})",
                spec.workloads
            ))
        }
        None => spec.workloads.clone(),
    };
    let seed = a.seed.unwrap_or(DEFAULT_SEED);
    let seconds = a.seconds.unwrap_or(spec.run_seconds);
    let mode = match (a.smoke, a.trace) {
        (true, _) => "smoke",
        (false, true) => "trace",
        (false, false) => "run",
    };
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let dir = bench_dir().join("results");
    let stem = format!(
        "{}-seed{seed}-{mode}-{stamp}",
        a.workload.as_deref().unwrap_or("all")
    );
    if a.out.is_none() || a.chrome {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }

    let mut results = BTreeMap::new();
    for w in &workloads {
        let chrome = (a.chrome && a.trace).then(|| dir.join(format!("{stem}-{w}.trace.json")));
        results.insert(
            w.clone(),
            run_child(w, &a, seed, seconds, chrome.as_deref())?,
        );
    }

    let wanted: &[MetricSpec] = if a.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    let mut line_metrics = BTreeMap::new();
    for w in &workloads {
        let r = &results[w];
        let field = |k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        attempted += field("attempted");
        failed += field("failed");
        correct &= r.get("correct").and_then(Value::as_bool) == Some(true);
        println!(
            "{w}: {} requests after {} warm-up, {} of {} failed, invariants {}, {} thread(s) on {} core(s), calibration {:.2} ms",
            field("requests"),
            field("warmup_requests"),
            field("failed"),
            field("attempted"),
            r.get("invariants").and_then(Value::as_str).unwrap_or("?"),
            field("threads"),
            field("available_parallelism"),
            metric(r, "host.calibration_ms").map_or(f64::NAN, |(v, _)| v),
        );
        let extras = [
            "latency_ms_p90",
            "latency_ms_p99",
            "throughput_rps",
            "failed_frac",
        ];
        for spec_metric in wanted {
            let name = spec_metric.name.as_str();
            match metric(r, name) {
                Some((v, unit)) if unit == spec_metric.unit => {
                    println!("  {name:<30} {v:>14.4} {unit}");
                    let key = if workloads.len() == 1 {
                        name.to_owned()
                    } else {
                        format!("{w}/{name}")
                    };
                    let m = BTreeMap::from([
                        ("value".to_owned(), Value::Num(v)),
                        ("unit".to_owned(), Value::Str(unit.to_owned())),
                    ]);
                    line_metrics.insert(key, Value::Obj(m));
                }
                Some((_, unit)) => {
                    return Err(format!(
                        "{w}: {name} is in {unit}, BENCHMARK.json says {}",
                        spec_metric.unit
                    ))
                }
                None if a.smoke => {}
                None => return Err(format!("{w}: no value for {name}")),
            }
        }
        if !a.trace {
            for name in extras {
                if let Some((v, unit)) = metric(r, name) {
                    println!("  {name:<30} {v:>14.4} {unit}   (not in BENCHMARK.json)");
                }
            }
        }
    }

    let file = Value::Obj(BTreeMap::from([
        (
            "schema".to_owned(),
            Value::Str("chameleon-benchmark/1".to_owned()),
        ),
        (
            "commit".to_owned(),
            Value::Str(host::commit(&bench_dir().join(".."))),
        ),
        ("seed".to_owned(), Value::Num(seed as f64)),
        ("seconds".to_owned(), Value::Num(seconds)),
        ("mode".to_owned(), Value::Str(mode.to_owned())),
        (
            "workloads".to_owned(),
            Value::Obj(results.into_iter().collect()),
        ),
    ]));
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| dir.join(format!("{stem}.json")));
    std::fs::write(&path, json::render(&file) + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results: {}", path.display());

    let last = Value::Obj(BTreeMap::from([
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::Num(attempted)),
        ("failed".to_owned(), Value::Num(failed)),
        ("metrics".to_owned(), Value::Obj(line_metrics)),
    ]));
    println!("{}", json::render(&last));
    Ok(0)
}

fn cmp(args: &[String]) -> Result<i32, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare takes BASE.json… -- CHANGE.json…")?;
    let files = |s: &[String]| s.iter().map(PathBuf::from).collect::<Vec<_>>();
    let spec = Spec::load()?;
    let rows = compare::compare(&spec, &files(&args[..split]), &files(&args[split + 1..]))?;
    println!(
        "{:<18} {:<16} {:>26} {:>26} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for r in &rows {
        let fmt = |(m, q1, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}, {q3:.4}]");
        println!(
            "{:<18} {:<16} {:>26} {:>26} {:>6.2}  {}",
            r.workload,
            r.metric,
            fmt(r.base),
            fmt(r.change),
            r.wins,
            r.verdict
        );
    }
    Ok(i32::from(rows.iter().any(|r| r.verdict == "regressed")))
}

/// Indented JSON, so reference files diff line by line.
fn pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Value::Obj(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in map.iter().enumerate() {
                out.push_str(&pad);
                out.push_str(&json::render(&Value::Str(k.clone())));
                out.push_str(": ");
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        scalar => out.push_str(&json::render(scalar)),
    }
}

fn expected() -> Result<i32, String> {
    for name in NAMES {
        let mut sc = scenario::build(name, DEFAULT_SEED, false, Arc::new(BodyLog::default()))?;
        let mut text = String::new();
        pretty(&sc.reference()?, 0, &mut text);
        let path = expected_path(name);
        std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))
            .map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(0)
}
