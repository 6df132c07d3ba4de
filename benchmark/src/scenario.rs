//! The four workloads, each a sequence of sessions: a timed set-up, then
//! requests that drive the library's public API, then an untimed check of
//! each request's output against its reference fingerprint.

use crate::counting::{BodyLog, Counted};
use crate::ledger::{Mode, Probe, Row, NO_CAPTURE, NO_EVAL, NO_PROFILER, PROFILED};
use crate::script::{self, Kind, Script};
use chameleon_collections::factory::CaptureMethod;
use chameleon_core::{
    min_heap_size_with, portable_updates, run_experiment, Env, EnvConfig, ParallelConfig,
    PortableUpdate, RunMetrics, ServeConfig, Server, Workload,
};
use chameleon_rules::{RuleEngine, Suggestion};
use chameleon_telemetry::json::{self, Value};
use chameleon_telemetry::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Workload names, in run order.
pub const NAMES: [&str; 4] = [
    "profile-pmd",
    "profile-tvla-par",
    "optimize-findbugs",
    "serve-mixed",
];

/// The seed `expected/` was generated with.
pub const DEFAULT_SEED: u64 = 1;

/// Commands in one serve session (about 3 s on a 2-core x86-64 container).
const SESSION_COMMANDS: usize = 400;

/// Commands of the session a serve session runs under `--smoke`: a prefix,
/// so the reference still applies.
const SMOKE_SESSION_COMMANDS: usize = 6;

/// The benchmark package's directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where a workload's reference fingerprint lives.
pub fn expected_path(workload: &str) -> PathBuf {
    bench_dir()
        .join("expected")
        .join(format!("{workload}.json"))
}

/// One request's output, checked after the timer stops.
pub enum Output {
    /// A profile pipeline's results.
    Profile(Box<ProfileOut>),
    /// A §5.2 experiment's results.
    Experiment(Box<ExperimentOut>),
    /// A serve reply.
    Reply {
        /// Position in the session body.
        index: usize,
        /// Command kind.
        kind: Kind,
        /// Reply text.
        text: String,
    },
    /// An ablation run: timed, not checked.
    Unchecked,
}

impl Output {
    /// What the request was, for per-kind latencies.
    pub fn kind(&self) -> &'static str {
        match self {
            Output::Reply { kind, .. } => kind_name(*kind),
            _ => "request",
        }
    }
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Open => "open",
        Kind::Step => "step",
        Kind::Report => "report",
        Kind::Fleet => "fleet",
        Kind::Close => "close",
    }
}

/// What a profile request hands back.
pub struct ProfileOut {
    metrics: RunMetrics,
    contexts: usize,
    context_misses: u64,
    report_contexts: usize,
    suggestions: Vec<Suggestion>,
    applied: Vec<PortableUpdate>,
}

/// What an experiment request hands back.
pub struct ExperimentOut {
    min_heap_before: u64,
    min_heap_after: u64,
    time_before: RunMetrics,
    time_after: RunMetrics,
    suggestions: Vec<Suggestion>,
    applied: Vec<PortableUpdate>,
    /// Ledger counts, taken only when traced.
    counts: Option<ExperimentCounts>,
}

struct ExperimentCounts {
    profile: RunMetrics,
    contexts: usize,
    context_misses: u64,
    report_contexts: usize,
}

/// A workload the harness drives.
pub trait Scenario {
    /// Ablation session modes a traced run cycles through.
    fn ablations(&self) -> &'static [&'static str];
    /// Sessions discarded before timing (the first also builds the serve
    /// reference, so `--smoke` keeps it).
    fn warmup_sessions(&self, smoke: bool) -> usize;
    /// Mutator threads a request uses.
    fn threads(&self) -> usize {
        1
    }
    /// Builds a session (timed as set-up).
    fn setup(&mut self, mode: Mode, tracer: Option<Tracer>) -> Result<(), String>;
    /// Whether the session has no requests left.
    fn done(&self) -> bool;
    /// Runs the session's next request.
    fn request(&mut self, probe: &mut Probe) -> Output;
    /// Drops the session after a request panicked.
    fn abort(&mut self);
    /// Checks `out` against the reference and adds its counts to `row`.
    fn check(&mut self, out: Output, row: Option<&mut Row>) -> Result<(), String>;
    /// Checks made once per process, outside the timed loop.
    fn invariants(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// The reference fingerprint `expected/` stores, from one session.
    fn reference(&mut self) -> Result<Value, String>;
}

/// Builds workload `name` for `seed`; `smoke` shortens serve sessions.
pub fn build(
    name: &str,
    seed: u64,
    smoke: bool,
    log: Arc<BodyLog>,
) -> Result<Box<dyn Scenario>, String> {
    let name = NAMES
        .into_iter()
        .find(|n| *n == name)
        .ok_or(format!("unknown workload {name:?} (have {NAMES:?})"))?;
    Ok(match name {
        "profile-pmd" => Box::new(Profile::new(name, "pmd", None, log)),
        // Two partitions on one mutator thread. At two threads on a shared
        // 2-core host the median swung by 28% between runs, with whether
        // the second core was free; thread scaling is left to its own
        // measurement. The invariant check still runs two threads.
        "profile-tvla-par" => Box::new(Profile::new(
            name,
            "tvla",
            Some(ParallelConfig {
                partitions: 2,
                threads: 1,
            }),
            log,
        )),
        "optimize-findbugs" => Box::new(Optimize::new(name, log)),
        _ => Box::new(Serve::new(seed, smoke, log)),
    })
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn metrics_value(m: &RunMetrics) -> Value {
    obj(vec![
        ("sim_time", num(m.sim_time)),
        ("peak_live_bytes", num(m.peak_live_bytes)),
        ("gc_count", num(m.gc_count)),
        ("total_allocated_bytes", num(m.total_allocated_bytes)),
        ("total_allocated_objects", num(m.total_allocated_objects)),
        ("capture_count", num(m.capture_count)),
    ])
}

fn policy_value(
    suggestions: &[Suggestion],
    applied: &[PortableUpdate],
) -> Vec<(&'static str, Value)> {
    vec![
        (
            "suggestions",
            Value::Arr(
                suggestions
                    .iter()
                    .map(|s| Value::Str(s.to_string()))
                    .collect(),
            ),
        ),
        (
            "applied",
            Value::Arr(
                applied
                    .iter()
                    .map(|u| {
                        obj(vec![
                            ("src_type", Value::Str(u.src_type.clone())),
                            (
                                "frames",
                                Value::Arr(u.frames.iter().cloned().map(Value::Str).collect()),
                            ),
                            ("choice", Value::Str(format!("{:?}", u.kind))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]
}

/// Loads `expected/<workload>.json` in canonical form.
fn load_expected(workload: &str) -> Result<Value, String> {
    let path = expected_path(workload);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "no reference fingerprint at {} ({e}); generate it with the `expected` command",
            path.display()
        )
    })?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(workload: &str, expected: &Result<Value, String>, got: &Value) -> Result<(), String> {
    let expected = expected.as_ref().map_err(Clone::clone)?;
    let (want, have) = (json::render(expected), json::render(got));
    if want == have {
        return Ok(());
    }
    let at = want
        .bytes()
        .zip(have.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    // Suggestion texts hold multi-byte characters; cut on char boundaries.
    let window = |s: &str| {
        let mut from = at.saturating_sub(40);
        while !s.is_char_boundary(from) {
            from -= 1;
        }
        let mut to = (at + 40).min(s.len());
        while !s.is_char_boundary(to) {
            to += 1;
        }
        s[from..to].to_owned()
    };
    Err(format!(
        "{workload}: output differs from the reference at byte {at}: expected …{}… got …{}…",
        window(&want),
        window(&have)
    ))
}

fn env_config(mode: Mode, tracer: Option<Tracer>) -> EnvConfig {
    let (method, profiling) = match mode {
        Mode::Ablation(NO_CAPTURE) => (CaptureMethod::None, false),
        Mode::Ablation(NO_PROFILER) => (CaptureMethod::Jvmti, false),
        _ => (CaptureMethod::Jvmti, true),
    };
    let mut cfg = EnvConfig {
        profiling,
        tracer,
        ..EnvConfig::default()
    };
    cfg.capture.method = method;
    cfg
}

/// The context-capture and profiler ablations, run on the profiling step.
const PROFILE_ABLATIONS: &[&str] = &[NO_CAPTURE, NO_PROFILER, PROFILED];

fn workload(name: &str, log: &Arc<BodyLog>) -> Counted {
    let inner = chameleon_workloads::by_name(name).expect("registered workload");
    Counted::new(inner, Arc::clone(log))
}

fn run_env(env: &Env, w: &dyn Workload, parallel: Option<ParallelConfig>) {
    match parallel {
        None => env.run(w),
        Some(pc) => {
            env.run_parallel(w, pc)
                .expect("workload has a partition plan");
        }
    }
}

struct Session {
    engine: RuleEngine,
    workload: Counted,
    config: EnvConfig,
    mode: Mode,
    left: usize,
}

fn session(workload_name: &str, log: &Arc<BodyLog>, mode: Mode, tracer: Option<Tracer>) -> Session {
    Session {
        engine: RuleEngine::builtin(),
        workload: workload(workload_name, log),
        config: env_config(mode, tracer),
        mode,
        left: 1,
    }
}

/// `profile-pmd` and `profile-tvla-par`: `Env::new` → run (sequential or
/// partitioned) → `report` → `RuleEngine::evaluate` → `portable_updates`,
/// what `chameleon profile` does.
struct Profile {
    name: &'static str,
    workload: &'static str,
    parallel: Option<ParallelConfig>,
    log: Arc<BodyLog>,
    expected: Result<Value, String>,
    session: Option<Session>,
}

impl Profile {
    fn new(
        name: &'static str,
        workload: &'static str,
        parallel: Option<ParallelConfig>,
        log: Arc<BodyLog>,
    ) -> Self {
        Profile {
            name,
            workload,
            parallel,
            log,
            expected: load_expected(name),
            session: None,
        }
    }

    fn fingerprint(out: &ProfileOut) -> Value {
        let mut entries = vec![("run_metrics", metrics_value(&out.metrics))];
        entries.extend(policy_value(&out.suggestions, &out.applied));
        obj(entries)
    }

    fn one_plain(&mut self) -> Result<Value, String> {
        self.setup(Mode::Plain, None)?;
        let mut probe = Probe::new(None, Arc::clone(&self.log), false);
        let out = self.request(&mut probe);
        self.log.drain();
        match out {
            Output::Profile(out) => Ok(Self::fingerprint(&out)),
            _ => Err("profile request returned no profile".to_owned()),
        }
    }
}

impl Scenario for Profile {
    fn ablations(&self) -> &'static [&'static str] {
        PROFILE_ABLATIONS
    }

    fn warmup_sessions(&self, smoke: bool) -> usize {
        if smoke {
            0
        } else {
            2
        }
    }

    fn threads(&self) -> usize {
        self.parallel.map_or(1, |p| p.threads)
    }

    fn setup(&mut self, mode: Mode, tracer: Option<Tracer>) -> Result<(), String> {
        self.session = Some(session(self.workload, &self.log, mode, tracer));
        Ok(())
    }

    fn done(&self) -> bool {
        self.session.as_ref().is_none_or(|s| s.left == 0)
    }

    fn request(&mut self, probe: &mut Probe) -> Output {
        let s = self.session.as_mut().expect("set up");
        s.left -= 1;
        if let Mode::Ablation(_) = s.mode {
            let env = Env::new(&s.config);
            run_env(&env, &s.workload, self.parallel);
            return Output::Unchecked;
        }
        let env = probe.time("env.new_ms", || Env::new(&s.config));
        probe.time("env.run_ms", || run_env(&env, &s.workload, self.parallel));
        let report = probe.time("profiler.report_ms", || env.report());
        let suggestions = probe.time("rules.evaluate_ms", || s.engine.evaluate(&report));
        let applied = probe.time("env.portable_updates_ms", || {
            let applicable: Vec<Suggestion> = suggestions
                .iter()
                .filter(|s| s.auto_applicable())
                .cloned()
                .collect();
            portable_updates(&applicable, &env.heap)
        });
        let out = ProfileOut {
            metrics: env.metrics(),
            contexts: env.heap.context_count(),
            context_misses: env.heap.context_intern_misses().1,
            report_contexts: report.contexts.len(),
            suggestions,
            applied,
        };
        probe.time("env.drop_ms", || drop((env, report)));
        Output::Profile(Box::new(out))
    }

    fn abort(&mut self) {
        self.session = None;
    }

    fn check(&mut self, out: Output, row: Option<&mut Row>) -> Result<(), String> {
        let Output::Profile(out) = out else {
            return Err(format!("{}: unexpected output", self.name));
        };
        if let Some(row) = row {
            add_counts(
                row,
                &out.metrics,
                out.contexts,
                out.context_misses,
                out.report_contexts,
            );
            add_rule_counts(row, &out.suggestions);
        }
        compare(self.name, &self.expected, &Self::fingerprint(&out))
    }

    fn invariants(&mut self) -> Result<(), String> {
        // Partitioned results are a function of the plan alone: one thread
        // and two must agree byte for byte. Untimed, so two threads may
        // share one core here.
        let Some(pc) = self.parallel else {
            return Ok(());
        };
        let mut prints = Vec::new();
        for threads in [1, 2] {
            self.parallel = Some(ParallelConfig { threads, ..pc });
            prints.push(self.one_plain().map(|v| json::render(&v)));
        }
        self.parallel = Some(pc);
        if prints[0].as_ref()? != prints[1].as_ref()? {
            return Err(format!(
                "{}: 1 and 2 threads give different results",
                self.name
            ));
        }
        Ok(())
    }

    fn reference(&mut self) -> Result<Value, String> {
        self.one_plain()
    }
}

fn add_counts(row: &mut Row, m: &RunMetrics, contexts: usize, misses: u64, report_contexts: usize) {
    row.insert("heap.alloc.objects", m.total_allocated_objects as f64);
    row.insert("heap.alloc.bytes", m.total_allocated_bytes as f64);
    row.insert("collections.captures", m.capture_count as f64);
    row.insert("heap.context.contexts", contexts as f64);
    row.insert("heap.context.misses", misses as f64);
    row.insert("profiler.contexts", report_contexts as f64);
}

fn add_rule_counts(row: &mut Row, suggestions: &[Suggestion]) {
    let applicable = suggestions.iter().filter(|s| s.auto_applicable()).count() as f64;
    let total = suggestions.len() as f64;
    row.insert("rules.suggestions", total);
    row.insert("rules.applicable", applicable);
    if total > 0.0 {
        row.insert("rules.applicable_ratio", applicable / total);
    }
}

/// `optimize-findbugs`: `run_experiment(findbugs, builtin, default, None)`,
/// the §5.2 methodology. A traced request makes the same calls in the same
/// order from outside — profile, evaluate, `portable_updates`, two
/// `min_heap_size_with` searches, two measured runs — so each can be timed
/// and the measured runs can carry the tracer; the check proves it
/// reproduced `run_experiment` exactly.
struct Optimize {
    name: &'static str,
    log: Arc<BodyLog>,
    expected: Result<Value, String>,
    session: Option<Session>,
}

impl Optimize {
    fn new(name: &'static str, log: Arc<BodyLog>) -> Self {
        Optimize {
            name,
            log,
            expected: load_expected(name),
            session: None,
        }
    }

    fn fingerprint(out: &ExperimentOut) -> Value {
        let mut entries = vec![
            ("min_heap_before", num(out.min_heap_before)),
            ("min_heap_after", num(out.min_heap_after)),
            ("time_before", metrics_value(&out.time_before)),
            ("time_after", metrics_value(&out.time_after)),
        ];
        entries.extend(policy_value(&out.suggestions, &out.applied));
        obj(entries)
    }

    fn traced(s: &Session, probe: &mut Probe) -> ExperimentOut {
        let w = &s.workload;
        let env = probe.time("env.new_ms", || Env::new(&s.config));
        probe.time("env.run_ms", || env.run(w));
        let report = probe.time("profiler.report_ms", || env.report());
        let suggestions = probe.time("rules.evaluate_ms", || s.engine.evaluate(&report));
        let applied = probe.time("env.portable_updates_ms", || {
            let applicable: Vec<Suggestion> = suggestions
                .iter()
                .filter(|s| s.auto_applicable())
                .cloned()
                .collect();
            portable_updates(&applicable, &env.heap)
        });
        let template = EnvConfig::default();
        let hint = report.peak_live().max(64 * 1024);
        let min_heap_before = probe.time("minheap.search_ms", || {
            min_heap_size_with(w, &[], hint, &template)
        });
        let min_heap_after = probe.time("minheap.search_ms", || {
            min_heap_size_with(w, &applied, hint, &template)
        });
        let measured = EnvConfig {
            tracer: probe.tracer(),
            ..EnvConfig::measured(min_heap_before + min_heap_before / 8)
        };
        let measured_run = |policy: &[PortableUpdate]| {
            let env = Env::new(&measured);
            env.apply_policy(policy);
            env.run(w);
            env.metrics()
        };
        let time_before = probe.time("experiment.measured_run_ms", || measured_run(&[]));
        let time_after = probe.time("experiment.measured_run_ms", || measured_run(&applied));
        let counts = ExperimentCounts {
            profile: env.metrics(),
            contexts: env.heap.context_count(),
            context_misses: env.heap.context_intern_misses().1,
            report_contexts: report.contexts.len(),
        };
        probe.time("env.drop_ms", || drop((env, report)));
        ExperimentOut {
            min_heap_before,
            min_heap_after,
            time_before,
            time_after,
            suggestions,
            applied,
            counts: Some(counts),
        }
    }
}

impl Scenario for Optimize {
    fn ablations(&self) -> &'static [&'static str] {
        PROFILE_ABLATIONS
    }

    fn warmup_sessions(&self, smoke: bool) -> usize {
        if smoke {
            0
        } else {
            2
        }
    }

    fn setup(&mut self, mode: Mode, tracer: Option<Tracer>) -> Result<(), String> {
        self.session = Some(session("findbugs", &self.log, mode, tracer));
        Ok(())
    }

    fn done(&self) -> bool {
        self.session.as_ref().is_none_or(|s| s.left == 0)
    }

    fn request(&mut self, probe: &mut Probe) -> Output {
        let s = self.session.as_mut().expect("set up");
        s.left -= 1;
        let out = match s.mode {
            Mode::Ablation(_) => {
                Env::new(&s.config).run(&s.workload);
                return Output::Unchecked;
            }
            Mode::Traced => Self::traced(s, probe),
            Mode::Plain => {
                let r = run_experiment(&s.workload, &s.engine, &s.config, None);
                ExperimentOut {
                    min_heap_before: r.min_heap_before,
                    min_heap_after: r.min_heap_after,
                    time_before: r.time_before,
                    time_after: r.time_after,
                    suggestions: r.suggestions,
                    applied: r.applied,
                    counts: None,
                }
            }
        };
        Output::Experiment(Box::new(out))
    }

    fn abort(&mut self) {
        self.session = None;
    }

    fn check(&mut self, out: Output, row: Option<&mut Row>) -> Result<(), String> {
        let Output::Experiment(out) = out else {
            return Err(format!("{}: unexpected output", self.name));
        };
        if let (Some(row), Some(c)) = (row, &out.counts) {
            add_counts(
                row,
                &c.profile,
                c.contexts,
                c.context_misses,
                c.report_contexts,
            );
            add_rule_counts(row, &out.suggestions);
            // The measured runs' allocations join the profiling run's, so
            // `mutator.ns_per_object` divides the same runs' time by them.
            for m in [&out.time_before, &out.time_after] {
                *row.entry("heap.alloc.objects").or_default() += m.total_allocated_objects as f64;
                *row.entry("heap.alloc.bytes").or_default() += m.total_allocated_bytes as f64;
            }
        }
        compare(self.name, &self.expected, &Self::fingerprint(&out))
    }

    fn reference(&mut self) -> Result<Value, String> {
        self.setup(Mode::Plain, None)?;
        let mut probe = Probe::new(None, Arc::clone(&self.log), false);
        let out = self.request(&mut probe);
        self.log.drain();
        match out {
            Output::Experiment(out) => Ok(Self::fingerprint(&out)),
            _ => Err("experiment request returned no experiment".to_owned()),
        }
    }
}

/// FNV-1a, 64-bit: reply fingerprints that need no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct ServeSession {
    server: Server,
    script: Script,
    next: usize,
    /// Lifetime totals of the tenants closed so far.
    online: BTreeMap<&'static str, f64>,
}

/// `serve-mixed`: a seeded JSONL session sent through
/// `Server::handle_line`, closed loop, one client. Each session rebuilds
/// the server, so every session replays the same script; the first
/// session's replies are the reference the others must match byte for
/// byte (for the default seed, `expected/` is).
struct Serve {
    seed: u64,
    /// Commands of the session body run per session.
    limit: usize,
    log: Arc<BodyLog>,
    reference: Option<Vec<u64>>,
    building: Vec<u64>,
    session: Option<ServeSession>,
}

const ONLINE: [&str; 5] = [
    "deaths",
    "evaluations",
    "replacements",
    "reverts",
    "drift_events",
];

impl Serve {
    fn new(seed: u64, smoke: bool, log: Arc<BodyLog>) -> Self {
        let limit = if smoke {
            SMOKE_SESSION_COMMANDS
        } else {
            SESSION_COMMANDS
        };
        let reference = (seed == DEFAULT_SEED)
            .then(|| load_expected("serve-mixed").ok())
            .flatten()
            .filter(|v| {
                v.get("session_commands").and_then(Value::as_u64) == Some(SESSION_COMMANDS as u64)
            })
            .and_then(|v| {
                v.get("reply_fnv")?
                    .as_arr()?
                    .iter()
                    .map(|h| u64::from_str_radix(h.as_str()?, 16).ok())
                    .collect()
            });
        Serve {
            seed,
            limit,
            log,
            reference,
            building: Vec::new(),
            session: None,
        }
    }
}

impl Scenario for Serve {
    fn ablations(&self) -> &'static [&'static str] {
        &[NO_EVAL]
    }

    fn warmup_sessions(&self, _smoke: bool) -> usize {
        1
    }

    fn setup(&mut self, mode: Mode, _tracer: Option<Tracer>) -> Result<(), String> {
        let engine = RuleEngine::builtin();
        let mut script = script::generate(self.seed, SESSION_COMMANDS);
        script.body.truncate(self.limit);
        let config = ServeConfig {
            eval_every_deaths: if mode == Mode::Ablation(NO_EVAL) {
                u64::MAX
            } else {
                ServeConfig::default().eval_every_deaths
            },
            ..ServeConfig::default()
        };
        let log = Arc::clone(&self.log);
        let mut server = Server::new(
            engine,
            &config,
            Box::new(move |name| {
                let w = chameleon_workloads::by_name(name)?;
                Some(Box::new(Counted::new(w, Arc::clone(&log))) as Box<dyn Workload>)
            }),
        );
        for line in &script.opening {
            let reply = server.handle_line(line);
            if !reply.text.starts_with(r#"{"cmd":"tenant_open","ok":true"#) {
                return Err(format!(
                    "serve-mixed: set-up command {line} failed: {}",
                    reply.text
                ));
            }
        }
        self.session = Some(ServeSession {
            server,
            script,
            next: 0,
            online: BTreeMap::new(),
        });
        Ok(())
    }

    fn done(&self) -> bool {
        self.session
            .as_ref()
            .is_none_or(|s| s.next == s.script.body.len())
    }

    fn request(&mut self, probe: &mut Probe) -> Output {
        let s = self.session.as_mut().expect("set up");
        let index = s.next;
        s.next += 1;
        let command = &s.script.body[index];
        let metric = match command.kind {
            Kind::Open => "serve.open_ms",
            Kind::Step => "serve.step_ms",
            Kind::Report => "serve.report_ms",
            Kind::Fleet => "serve.fleet_ms",
            Kind::Close => "serve.close_ms",
        };
        let reply = probe.time(metric, || s.server.handle_line(&command.line));
        Output::Reply {
            index,
            kind: command.kind,
            text: reply.text,
        }
    }

    fn abort(&mut self) {
        self.session = None;
    }

    fn check(&mut self, out: Output, row: Option<&mut Row>) -> Result<(), String> {
        let Output::Reply { index, kind, text } = out else {
            return Err("serve-mixed: unexpected output".to_owned());
        };
        let s = self.session.as_mut().expect("set up");
        let hash = fnv1a(text.as_bytes());
        let last = index + 1 == s.script.body.len();
        // The first session records the reference, failed replies included,
        // so later sessions compare reply i against reply i.
        let want = match &self.reference {
            Some(reference) => Some(reference.get(index).copied()),
            None => {
                self.building.push(hash);
                if last {
                    self.reference = Some(std::mem::take(&mut self.building));
                }
                None
            }
        };
        let reply =
            json::parse(&text).map_err(|e| format!("serve-mixed: bad reply {text}: {e}"))?;
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("serve-mixed: command {index} failed: {text}"));
        }
        if kind == Kind::Close {
            let report = reply.get("report");
            for key in ONLINE {
                let n = report
                    .and_then(|r| r.get(key))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                *s.online.entry(key).or_default() += n;
            }
        }
        if let (Some(row), true) = (row, last) {
            for (key, metric) in ONLINE.iter().zip([
                "online.deaths",
                "online.evaluations",
                "online.replacements",
                "online.reverts",
                "online.drift_events",
            ]) {
                row.insert(metric, s.online.get(key).copied().unwrap_or(0.0));
            }
        }
        match want {
            None => Ok(()),
            Some(Some(want)) if want == hash => Ok(()),
            Some(Some(_)) => Err(format!(
                "serve-mixed: reply {index} differs from the reference session: {text}"
            )),
            Some(None) => Err(format!("serve-mixed: no reference reply {index}")),
        }
    }

    fn reference(&mut self) -> Result<Value, String> {
        self.reference = None;
        self.setup(Mode::Plain, None)?;
        let mut probe = Probe::new(None, Arc::clone(&self.log), false);
        let mut stream = Vec::new();
        while !self.done() {
            let out = self.request(&mut probe);
            if let Output::Reply { text, .. } = &out {
                stream.extend_from_slice(text.as_bytes());
                stream.push(b'\n');
            }
            self.check(out, None)?;
            self.log.drain();
        }
        let hashes = self.reference.clone().unwrap_or_default();
        Ok(obj(vec![
            ("seed", num(self.seed)),
            ("session_commands", num(self.limit as u64)),
            ("stream_fnv", Value::Str(format!("{:016x}", fnv1a(&stream)))),
            (
                "reply_fnv",
                Value::Arr(
                    hashes
                        .iter()
                        .map(|h| Value::Str(format!("{h:016x}")))
                        .collect(),
                ),
            ),
        ]))
    }
}
