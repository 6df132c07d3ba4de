//! Multi-tenant online-adaptation server (`chameleon serve`).
//!
//! One process serving many adapting programs: a long-running [`Server`]
//! hosts N named tenant environments, each a workload instance with its
//! own hermetic heap / factory / profiler (the same isolation contract as
//! `core::parallel`'s partition environments). Every tenant runs the
//! fully-automatic online mode (§3.3.2) with the hysteresis policy and
//! drift trigger from [`crate::online`].
//!
//! The server speaks JSONL: one command object per line in, one response
//! object per line out, both through `telemetry::json`. Commands:
//!
//! | command         | fields                           | effect |
//! |-----------------|----------------------------------|--------|
//! | `tenant_open`   | `tenant`, `workload`             | build a tenant environment, refused once [`MAX_TENANTS`] are open |
//! | `tenant_step`   | `tenant`, `phase?`, `repeat?`    | run the workload (or one named phase) `repeat` times, 1 to [`MAX_REPEAT`] |
//! | `tenant_report` | `tenant`                         | per-tenant adaptation summary |
//! | `tenant_close`  | `tenant`                         | final GC + survivor flush, converged policy, teardown |
//! | `fleet_report`  | —                                | all tenant summaries + fleet aggregates |
//! | `shutdown`      | —                                | acknowledge and stop the stream loop |
//!
//! A command that panics (a simulated `OutOfMemory` under
//! `heap_capacity`, or a workload bug) gets an error reply; if it names a
//! tenant, that tenant is closed, and the other tenants go on.
//!
//! Blank lines and `#`-prefixed comment lines are skipped, so recorded
//! session scripts can be annotated. A line that is not UTF-8 or is longer
//! than [`MAX_LINE_BYTES`] gets an error response, and the stream goes on
//! at the next newline.
//!
//! **Determinism contract:** a serve session is a pure function of its
//! command stream. Tenant state lives in `BTreeMap`s, responses are
//! rendered through the canonical `json::render` (sorted keys, no
//! whitespace), the evaluation cadence is death-count driven, and nothing
//! in this module reads the wall clock — so replaying the same script
//! yields byte-identical output, evaluation-for-evaluation.

use crate::env::{Env, EnvConfig};
use crate::online::{OnlineConfig, OnlineSink};
use crate::workload::Workload;
use chameleon_heap::{Heap, OutOfMemory};
use chameleon_rules::{PolicyUpdate, RuleEngine};
use chameleon_telemetry::json::{self, Value};
use std::any::Any;
use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

/// Largest `repeat` a `tenant_step` accepts. Dispatch is one loop, so an
/// unbounded count would stall every tenant behind one command.
pub const MAX_REPEAT: u64 = 10_000;

/// Most tenants open at once. Every tenant holds its own heap, so an
/// unbounded count would let one client exhaust the server's memory.
pub const MAX_TENANTS: usize = 1024;

/// Longest command line [`serve_stream`] accepts, newline excluded. A
/// longer line is answered with an error and skipped up to its newline, so
/// one client cannot make the server buffer without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Server construction parameters. The adaptation knobs mirror
/// [`OnlineConfig`] and apply to every tenant; unlike the single-tenant
/// online mode, every tenant always tracks drift — a server cannot
/// assume its tenants keep one phase forever.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Environment template for tenants. Every tenant keeps the template's
    /// observability hooks (telemetry, tracer, heap profiling), so a
    /// running server logs its tenants' GC cycles and spans; profiling is
    /// forced on (online adaptation requires it).
    pub env: EnvConfig,
    /// Death cadence between rule re-evaluations per tenant.
    pub eval_every_deaths: u64,
    /// Consecutive evaluations a policy change must win before it is
    /// installed (hysteresis K).
    pub confirm_evals: u64,
    /// Minimum `potential_bytes` a suggestion must show to become a
    /// hysteresis candidate.
    pub min_potential_bytes: u64,
    /// §4.2 per-type capture shutoff floor (None = never shut off).
    pub shutoff_below_potential: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            env: EnvConfig::default(),
            eval_every_deaths: 64,
            confirm_evals: 2,
            min_potential_bytes: 0,
            shutoff_below_potential: None,
        }
    }
}

/// Builds a workload by registry name. The server takes this as a
/// parameter because the workload registry lives above `core` in the
/// crate graph (`chameleon-workloads` depends on `chameleon-core`); the
/// CLI passes `chameleon_workloads::by_name`.
pub type WorkloadResolver = Box<dyn Fn(&str) -> Option<Box<dyn Workload>>>;

/// One reply to one command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Canonical JSON text (no trailing newline).
    pub text: String,
    /// Whether the command asked the stream loop to stop.
    pub shutdown: bool,
}

struct Tenant {
    workload: Box<dyn Workload>,
    env: Env,
    sink: Rc<OnlineSink>,
    steps: u64,
}

/// The multi-tenant adaptation server.
pub struct Server {
    engine: Arc<RuleEngine>,
    config: ServeConfig,
    resolve: WorkloadResolver,
    tenants: BTreeMap<String, Tenant>,
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

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn kind_name(tag: u8) -> &'static str {
    match tag {
        0 => "list",
        1 => "set",
        _ => "map",
    }
}

/// The message a panic carried: a simulated `OutOfMemory`, or text.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(oom) = payload.downcast_ref::<OutOfMemory>() {
        oom.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-text payload".to_owned()
    }
}

/// Renders an installed override as a response object.
fn update_value(u: &PolicyUpdate, heap: &Heap) -> Value {
    let (kind, ctx, impl_name, capacity) = match u {
        PolicyUpdate::List(c, sel) => ("list", *c, format!("{:?}", sel.choice), sel.capacity),
        PolicyUpdate::Set(c, sel) => ("set", *c, format!("{:?}", sel.choice), sel.capacity),
        PolicyUpdate::Map(c, sel) => ("map", *c, format!("{:?}", sel.choice), sel.capacity),
    };
    obj(vec![
        ("kind", text(kind)),
        ("context", text(heap.format_context(ctx))),
        ("impl", text(impl_name)),
        (
            "capacity",
            capacity.map(|c| num(c as u64)).unwrap_or(Value::Null),
        ),
    ])
}

/// The implementation name an override selects (for fleet aggregation).
fn update_impl_name(u: &PolicyUpdate) -> String {
    match u {
        PolicyUpdate::List(_, sel) => format!("{:?}", sel.choice),
        PolicyUpdate::Set(_, sel) => format!("{:?}", sel.choice),
        PolicyUpdate::Map(_, sel) => format!("{:?}", sel.choice),
    }
}

fn tenant_summary(name: &str, t: &Tenant) -> Value {
    let m = t.env.metrics();
    let heap = &t.env.heap;
    let selections: Vec<Value> = t
        .sink
        .installed_updates()
        .iter()
        .map(|u| update_value(u, heap))
        .collect();
    let switches: Vec<Value> = t
        .sink
        .switch_counts()
        .iter()
        .map(|(tag, ctx, n)| {
            obj(vec![
                ("kind", text(kind_name(*tag))),
                ("context", text(heap.format_context(*ctx))),
                ("switches", num(*n)),
            ])
        })
        .collect();
    obj(vec![
        ("tenant", text(name)),
        ("workload", text(t.workload.name())),
        ("steps", num(t.steps)),
        ("deaths", num(t.sink.death_total())),
        ("evaluations", num(t.sink.evaluations())),
        ("replacements", num(t.sink.replacements())),
        ("reverts", num(t.sink.reverts())),
        ("drift_events", num(t.sink.drift_events())),
        ("max_switches", num(t.sink.max_switches())),
        (
            "disabled_types",
            Value::Arr(
                t.sink
                    .disabled_types()
                    .into_iter()
                    .map(Value::Str)
                    .collect(),
            ),
        ),
        ("selections", Value::Arr(selections)),
        ("switches", Value::Arr(switches)),
        (
            "metrics",
            obj(vec![
                ("sim_time", num(m.sim_time)),
                ("peak_live_bytes", num(m.peak_live_bytes)),
                ("gc_count", num(m.gc_count)),
                ("allocated_bytes", num(m.total_allocated_bytes)),
                ("allocated_objects", num(m.total_allocated_objects)),
                ("capture_count", num(m.capture_count)),
            ]),
        ),
    ])
}

impl Server {
    /// Builds a server. `resolve` maps `tenant_open`'s workload names to
    /// workload instances.
    pub fn new(engine: RuleEngine, config: &ServeConfig, resolve: WorkloadResolver) -> Self {
        Server {
            engine: Arc::new(engine),
            config: config.clone(),
            resolve,
            tenants: BTreeMap::new(),
        }
    }

    /// Number of currently open tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Handles one command line and produces one response line. Invalid
    /// input never panics or kills the server: it yields an
    /// `{"ok":false,"error":...}` response so a misbehaving client cannot
    /// take down the other tenants. A command that panics gets such a
    /// response too, and the tenant it names is closed; later commands for
    /// that tenant get "unknown tenant".
    pub fn handle_line(&mut self, line: &str) -> Reply {
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(line))) {
            Ok(Ok((value, shutdown))) => Reply {
                text: json::render(&value),
                shutdown,
            },
            Ok(Err(msg)) => error_reply(msg),
            Err(payload) => error_reply(self.close_after_panic(line, payload.as_ref())),
        }
    }

    /// Closes the tenant a panicked command names, if any, and returns the
    /// error message for its reply.
    fn close_after_panic(&mut self, line: &str, payload: &(dyn Any + Send)) -> String {
        let msg = panic_message(payload);
        let tenant = json::parse(line)
            .ok()
            .and_then(|v| Self::tenant_name(&v).ok());
        match tenant {
            Some(name) => {
                // Dropping the tenant drops its workload, which may panic too.
                let _ = catch_unwind(AssertUnwindSafe(|| drop(self.tenants.remove(&name))));
                format!("tenant {name:?} failed: {msg}")
            }
            None => format!("command failed: {msg}"),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<(Value, bool), String> {
        let v = json::parse(line).map_err(|e| format!("bad json: {e}"))?;
        let cmd = v
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or("missing string field \"cmd\"")?
            .to_owned();
        let value = match cmd.as_str() {
            "tenant_open" => self.tenant_open(&v)?,
            "tenant_step" => self.tenant_step(&v)?,
            "tenant_report" => {
                let (name, t) = self.tenant(&v)?;
                obj(vec![
                    ("ok", Value::Bool(true)),
                    ("cmd", text("tenant_report")),
                    ("report", tenant_summary(&name, t)),
                ])
            }
            "tenant_close" => self.tenant_close(&v)?,
            "fleet_report" => self.fleet_report(),
            "shutdown" => {
                let value = obj(vec![
                    ("ok", Value::Bool(true)),
                    ("cmd", text("shutdown")),
                    ("tenants_open", num(self.tenants.len() as u64)),
                ]);
                return Ok((value, true));
            }
            other => return Err(format!("unknown command {other:?}")),
        };
        Ok((value, false))
    }

    fn tenant_name(v: &Value) -> Result<String, String> {
        Ok(v.get("tenant")
            .and_then(Value::as_str)
            .ok_or("missing string field \"tenant\"")?
            .to_owned())
    }

    fn tenant(&self, v: &Value) -> Result<(String, &Tenant), String> {
        let name = Self::tenant_name(v)?;
        let t = self
            .tenants
            .get(&name)
            .ok_or_else(|| format!("unknown tenant {name:?}"))?;
        Ok((name, t))
    }

    fn tenant_open(&mut self, v: &Value) -> Result<Value, String> {
        let name = Self::tenant_name(v)?;
        if self.tenants.contains_key(&name) {
            return Err(format!("tenant {name:?} already open"));
        }
        if self.tenants.len() >= MAX_TENANTS {
            return Err(format!("{MAX_TENANTS} tenants already open"));
        }
        let workload_name = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("missing string field \"workload\"")?;
        let workload = (self.resolve)(workload_name)
            .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;

        // Hermetic tenant environment: own heap, like a parallel
        // partition env. Dispatch is single-threaded, so the heap's
        // single-mutator contract holds trivially, and tenants share the
        // server's telemetry and tracer directly, as sequential code does.
        let env = Env::new(&EnvConfig {
            profiling: true,
            ..self.config.env.clone()
        });
        let online = OnlineConfig {
            env: self.config.env.clone(),
            eval_every_deaths: self.config.eval_every_deaths,
            shutoff_below_potential: self.config.shutoff_below_potential,
            confirm_evals: self.config.confirm_evals,
            min_potential_bytes: self.config.min_potential_bytes,
            drift: true,
        };
        let sink =
            OnlineSink::new(&env, self.engine.clone(), &online).map_err(|e| e.to_string())?;
        env.rt.set_sink(sink.clone());
        self.tenants.insert(
            name.clone(),
            Tenant {
                workload,
                env,
                sink,
                steps: 0,
            },
        );
        Ok(obj(vec![
            ("ok", Value::Bool(true)),
            ("cmd", text("tenant_open")),
            ("tenant", text(name)),
            ("workload", text(workload_name)),
        ]))
    }

    fn tenant_step(&mut self, v: &Value) -> Result<Value, String> {
        let name = Self::tenant_name(v)?;
        let phase = v.get("phase").and_then(Value::as_str).map(str::to_owned);
        let repeat = match v.get("repeat") {
            None => 1,
            Some(r) => r
                .as_u64()
                .filter(|&n| (1..=MAX_REPEAT).contains(&n))
                .ok_or_else(|| {
                    format!("field \"repeat\" must be an integer in 1..={MAX_REPEAT}")
                })?,
        };
        let t = self
            .tenants
            .get_mut(&name)
            .ok_or_else(|| format!("unknown tenant {name:?}"))?;
        let phases = match &phase {
            Some(p) => {
                let plan = t
                    .workload
                    .phases()
                    .ok_or_else(|| format!("workload {:?} has no phases", t.workload.name()))?;
                let known: Vec<String> = plan.iter().map(|x| x.name().to_owned()).collect();
                Some(
                    plan.into_iter()
                        .find(|x| x.name() == p)
                        .ok_or_else(|| format!("unknown phase {p:?} (have {known:?})"))?,
                )
            }
            None => None,
        };
        for _ in 0..repeat {
            match &phases {
                Some(task) => task.run(&t.env.factory),
                None => t.workload.run(&t.env.factory),
            }
            // A GC per step keeps heap statistics (and thus
            // potential-bytes evidence) flowing between commands; the
            // survivor flush waits for tenant_close so long-lived state
            // is not double-counted across steps.
            t.env.heap.gc();
        }
        t.steps += repeat;
        Ok(obj(vec![
            ("ok", Value::Bool(true)),
            ("cmd", text("tenant_step")),
            ("tenant", text(name)),
            ("phase", phase.map(Value::Str).unwrap_or(Value::Null)),
            ("repeat", num(repeat)),
            ("steps", num(t.steps)),
            ("deaths", num(t.sink.death_total())),
            ("evaluations", num(t.sink.evaluations())),
            ("replacements", num(t.sink.replacements())),
            ("reverts", num(t.sink.reverts())),
            ("drift_events", num(t.sink.drift_events())),
        ]))
    }

    fn tenant_close(&mut self, v: &Value) -> Result<Value, String> {
        let name = Self::tenant_name(v)?;
        let t = self
            .tenants
            .get(&name)
            .ok_or_else(|| format!("unknown tenant {name:?}"))?;
        // End-of-life accounting, as Env::run does for one-shot runs:
        // final GC, then deliver survivors so long-lived contexts reach
        // the converged policy.
        t.env.heap.gc();
        t.env.rt.flush_survivors();
        let report = t.env.report();
        let converged: Vec<Value> = self
            .engine
            .evaluate(&report)
            .iter()
            .filter(|s| s.auto_applicable())
            .map(|s| {
                obj(vec![
                    ("context", text(&s.label)),
                    ("src_type", text(&s.src_type)),
                    ("potential_bytes", num(s.potential_bytes)),
                ])
            })
            .collect();
        let summary = tenant_summary(&name, t);
        self.tenants.remove(&name);
        Ok(obj(vec![
            ("ok", Value::Bool(true)),
            ("cmd", text("tenant_close")),
            ("report", summary),
            ("converged", Value::Arr(converged)),
        ]))
    }

    fn fleet_report(&self) -> Value {
        let mut tenants = BTreeMap::new();
        let mut deaths = 0u64;
        let mut evaluations = 0u64;
        let mut replacements = 0u64;
        let mut reverts = 0u64;
        let mut drift_events = 0u64;
        let mut max_switches = 0u64;
        let mut by_impl: BTreeMap<String, u64> = BTreeMap::new();
        for (name, t) in &self.tenants {
            tenants.insert(name.clone(), tenant_summary(name, t));
            deaths += t.sink.death_total();
            evaluations += t.sink.evaluations();
            replacements += t.sink.replacements();
            reverts += t.sink.reverts();
            drift_events += t.sink.drift_events();
            max_switches = max_switches.max(t.sink.max_switches());
            for u in t.sink.installed_updates() {
                *by_impl.entry(update_impl_name(&u)).or_insert(0) += 1;
            }
        }
        obj(vec![
            ("ok", Value::Bool(true)),
            ("cmd", text("fleet_report")),
            ("tenants", Value::Obj(tenants)),
            (
                "fleet",
                obj(vec![
                    ("tenants", num(self.tenants.len() as u64)),
                    ("deaths", num(deaths)),
                    ("evaluations", num(evaluations)),
                    ("replacements", num(replacements)),
                    ("reverts", num(reverts)),
                    ("drift_events", num(drift_events)),
                    ("max_switches", num(max_switches)),
                    (
                        "selections_by_impl",
                        Value::Obj(by_impl.into_iter().map(|(k, n)| (k, num(n))).collect()),
                    ),
                ]),
            ),
        ])
    }
}

/// The `{"ok":false,"error":...}` response to a rejected line.
fn error_reply(msg: String) -> Reply {
    Reply {
        text: json::render(&obj(vec![("ok", Value::Bool(false)), ("error", text(msg))])),
        shutdown: false,
    }
}

/// Drives `server` over a JSONL stream: one response line per command
/// line, blank and `#`-comment lines skipped. A line that is not UTF-8 or
/// exceeds [`MAX_LINE_BYTES`] gets an error response and the stream
/// continues at the next newline. Returns `true` when the stream ended
/// because of a `shutdown` command (rather than EOF).
pub fn serve_stream<R: BufRead, W: Write>(
    server: &mut Server,
    mut reader: R,
    mut writer: W,
) -> std::io::Result<bool> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Read one byte past the cap, so an over-long line is detected
        // without buffering the rest of it.
        let limit = MAX_LINE_BYTES as u64 + 1;
        if reader.by_ref().take(limit).read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let reply = if line.len() > MAX_LINE_BYTES {
            reader.skip_until(b'\n')?;
            error_reply(format!("line longer than {MAX_LINE_BYTES} bytes"))
        } else {
            match std::str::from_utf8(line) {
                Ok(line) => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    server.handle_line(trimmed)
                }
                Err(e) => error_reply(format!("line is not valid UTF-8: {e}")),
            }
        };
        writeln!(writer, "{}", reply.text)?;
        if reply.shutdown {
            writer.flush()?;
            return Ok(true);
        }
    }
    writer.flush()?;
    Ok(false)
}

/// Serves connections on a Unix socket at `path`, one at a time (the
/// determinism contract is per command stream; concurrent clients would
/// interleave nondeterministically). An existing socket file at `path` is
/// replaced. Returns after a client sends `shutdown`.
#[cfg(unix)]
pub fn serve_socket(server: &mut Server, path: &std::path::Path) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = std::io::BufReader::new(stream.try_clone()?);
        if serve_stream(server, reader, stream)? {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PartitionTask;
    use chameleon_collections::CollectionFactory;

    /// A miniature phase-shift tenant workload: small maps in phase one,
    /// get-hammered linked lists in phase two.
    struct TwoPhase;

    fn map_heavy(f: &CollectionFactory) {
        let _g = f.enter("tp.MapHeavy:1");
        for i in 0..120 {
            let mut m = f.new_map::<i64, i64>(None);
            for k in 0..4 {
                m.put(k, i + k);
            }
            let _ = m.get(&0);
        }
    }

    fn list_heavy(f: &CollectionFactory) {
        let _g = f.enter("tp.ListHeavy:2");
        for i in 0..120 {
            let mut l = f.new_linked_list::<i64>();
            for k in 0..8 {
                l.add(i + k);
            }
            for g in 0..96 {
                let _ = l.get(g % 8);
            }
        }
    }

    impl Workload for TwoPhase {
        fn name(&self) -> &'static str {
            "two-phase"
        }
        fn run(&self, f: &CollectionFactory) {
            map_heavy(f);
            list_heavy(f);
        }
        fn phases(&self) -> Option<Vec<PartitionTask>> {
            Some(vec![
                PartitionTask::new("map-heavy", map_heavy),
                PartitionTask::new("list-heavy", list_heavy),
            ])
        }
    }

    /// Steady workload: small maps forever.
    struct Steady;
    impl Workload for Steady {
        fn name(&self) -> &'static str {
            "steady"
        }
        fn run(&self, f: &CollectionFactory) {
            map_heavy(f);
        }
    }

    /// Runs like `Steady` once, then runs out of heap on every later step.
    #[derive(Default)]
    struct Faulty {
        runs: std::cell::Cell<u32>,
    }
    impl Workload for Faulty {
        fn name(&self) -> &'static str {
            "faulty"
        }
        fn run(&self, f: &CollectionFactory) {
            self.runs.set(self.runs.get() + 1);
            if self.runs.get() > 1 {
                std::panic::panic_any(OutOfMemory {
                    requested: 64,
                    capacity: 4096,
                    live_after_gc: 4080,
                });
            }
            map_heavy(f);
        }
    }

    /// Runs like `Steady` once and panics on every later step; panics
    /// again when dropped, so closing it panics too.
    #[derive(Default)]
    struct PanicOnDrop {
        runs: std::cell::Cell<u32>,
    }
    impl Workload for PanicOnDrop {
        fn name(&self) -> &'static str {
            "panic-on-drop"
        }
        fn run(&self, f: &CollectionFactory) {
            self.runs.set(self.runs.get() + 1);
            assert!(self.runs.get() == 1, "workload step failed");
            map_heavy(f);
        }
    }
    impl Drop for PanicOnDrop {
        fn drop(&mut self) {
            panic!("workload teardown failed");
        }
    }

    fn resolver() -> WorkloadResolver {
        Box::new(|name| match name {
            "two-phase" => Some(Box::new(TwoPhase)),
            "steady" => Some(Box::new(Steady)),
            "faulty" => Some(Box::<Faulty>::default()),
            "panic-on-drop" => Some(Box::<PanicOnDrop>::default()),
            _ => None,
        })
    }

    fn server_on(env: EnvConfig) -> Server {
        Server::new(
            RuleEngine::builtin(),
            &ServeConfig {
                env,
                eval_every_deaths: 50,
                ..ServeConfig::default()
            },
            resolver(),
        )
    }

    const SESSION: &str = r#"
# three tenants: a shifts phase, b and c stay steady
{"cmd":"tenant_open","tenant":"a","workload":"two-phase"}
{"cmd":"tenant_open","tenant":"b","workload":"two-phase"}
{"cmd":"tenant_open","tenant":"c","workload":"steady"}
{"cmd":"tenant_step","tenant":"a","phase":"map-heavy","repeat":4}
{"cmd":"tenant_step","tenant":"b","phase":"map-heavy","repeat":4}
{"cmd":"tenant_step","tenant":"c","repeat":4}
{"cmd":"tenant_report","tenant":"a"}
{"cmd":"tenant_step","tenant":"a","phase":"list-heavy","repeat":4}
{"cmd":"tenant_step","tenant":"b","phase":"map-heavy","repeat":4}
{"cmd":"tenant_step","tenant":"c","repeat":4}
{"cmd":"fleet_report"}
{"cmd":"tenant_close","tenant":"a"}
{"cmd":"tenant_close","tenant":"b"}
{"cmd":"tenant_close","tenant":"c"}
{"cmd":"shutdown"}
"#;

    fn run_session(script: &str) -> String {
        run_session_on(&mut server_on(EnvConfig::default()), script)
    }

    fn run_session_on(server: &mut Server, script: &str) -> String {
        let mut out = Vec::new();
        let ended = serve_stream(server, script.as_bytes(), &mut out).expect("in-memory stream");
        assert!(ended, "script ends with shutdown");
        String::from_utf8(out).expect("responses are utf-8")
    }

    fn fleet_of(output: &str) -> Value {
        let line = output
            .lines()
            .find(|l| l.contains("\"cmd\":\"fleet_report\""))
            .expect("fleet report present");
        json::parse(line).expect("fleet report parses")
    }

    #[test]
    fn bad_lines_get_errors_and_the_stream_goes_on() {
        let oversized = format!(
            "{{\"cmd\":\"fleet_report\",\"pad\":\"{}\"}}",
            "x".repeat(MAX_LINE_BYTES)
        );
        let mut script = b"\xff\n".to_vec();
        script.extend_from_slice(oversized.as_bytes());
        script.extend_from_slice(b"\n{\"cmd\":\"shutdown\"}\n");
        let mut out = Vec::new();
        let ended = serve_stream(&mut server_on(EnvConfig::default()), &script[..], &mut out)
            .expect("bad lines must not end the stream");
        assert!(ended, "shutdown still answered");
        let out = String::from_utf8(out).expect("responses are utf-8");
        let replies: Vec<Value> = out.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(replies.len(), 3, "{out}");
        let error = |v: &Value| {
            v.get("error")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned()
        };
        assert!(error(&replies[0]).contains("UTF-8"), "{out}");
        assert!(error(&replies[1]).contains("longer than"), "{out}");
        assert_eq!(
            replies[2].get("cmd").and_then(Value::as_str),
            Some("shutdown")
        );
        assert_eq!(replies[2].get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn replayed_sessions_are_byte_identical() {
        let first = run_session(SESSION);
        let second = run_session(SESSION);
        assert_eq!(first, second, "serve sessions must replay bit-identically");
        // Every response is itself canonical JSON.
        for line in first.lines() {
            let v = json::parse(line).expect("response parses");
            assert_eq!(json::render(&v), line, "response is canonical");
        }
    }

    #[test]
    fn tenants_log_into_the_server_telemetry_without_changing_replies() {
        let observed = || EnvConfig {
            telemetry: Some(chameleon_telemetry::Telemetry::new()),
            ..EnvConfig::default()
        };
        let env = observed();
        let mut s = server_on(env.clone());
        s.handle_line(r#"{"cmd":"tenant_open","tenant":"a","workload":"steady"}"#);
        s.handle_line(r#"{"cmd":"tenant_step","tenant":"a","repeat":2}"#);
        let log = env.telemetry.unwrap().events_snapshot();
        assert!(log.matches("\"ev\":\"gc_cycle\"").count() >= 2, "{log}");

        let replies = run_session_on(&mut server_on(observed()), SESSION);
        assert_eq!(replies, run_session(SESSION), "telemetry changed a reply");
    }

    #[test]
    fn phase_shift_drifts_only_the_tenant_that_shifted() {
        let output = run_session(SESSION);
        let fleet = fleet_of(&output);
        let tenants = fleet.get("tenants").expect("tenants object");
        let drift = |name: &str| {
            tenants
                .get(name)
                .and_then(|t| t.get("drift_events"))
                .and_then(Value::as_u64)
                .expect("drift_events")
        };
        assert!(drift("a") >= 1, "the shifting tenant re-profiles: {output}");
        assert_eq!(drift("b"), 0, "steady tenant b must not drift: {output}");
        assert_eq!(drift("c"), 0, "steady tenant c must not drift: {output}");
    }

    #[test]
    fn no_tenant_flaps() {
        let output = run_session(SESSION);
        let fleet = fleet_of(&output);
        let tenants = fleet
            .get("tenants")
            .expect("tenants object")
            .as_obj()
            .unwrap();
        for (name, t) in tenants {
            let max = t.get("max_switches").and_then(Value::as_u64).unwrap();
            // Two phases: an install in each (plus at most a revert of the
            // stale one after the shift) — never more than one switch per
            // phase per slot.
            assert!(max <= 2, "tenant {name} flapped ({max} switches): {output}");
            let replacements = t.get("replacements").and_then(Value::as_u64).unwrap();
            assert!(replacements >= 1, "tenant {name} adapted: {output}");
        }
    }

    #[test]
    fn closing_reports_a_converged_policy() {
        let output = run_session(SESSION);
        let close_a = output
            .lines()
            .filter(|l| l.contains("\"cmd\":\"tenant_close\""))
            .map(|l| json::parse(l).expect("parses"))
            .find(|v| {
                v.get("report")
                    .and_then(|r| r.get("tenant"))
                    .and_then(Value::as_str)
                    == Some("a")
            })
            .expect("tenant a close response");
        let converged = close_a.get("converged").and_then(Value::as_arr).unwrap();
        assert!(
            !converged.is_empty(),
            "tenant a converges to a non-empty policy: {output}"
        );
    }

    #[test]
    fn errors_are_structured_and_non_fatal() {
        let mut s = server_on(EnvConfig::default());
        for (line, needle) in [
            ("not json", "bad json"),
            ("{\"nocmd\":1}", "missing string field \"cmd\""),
            ("{\"cmd\":\"launch\"}", "unknown command"),
            (
                "{\"cmd\":\"tenant_step\",\"tenant\":\"ghost\"}",
                "unknown tenant",
            ),
            (
                "{\"cmd\":\"tenant_open\",\"tenant\":\"a\",\"workload\":\"nope\"}",
                "unknown workload",
            ),
        ] {
            let reply = s.handle_line(line);
            assert!(!reply.shutdown);
            let v = json::parse(&reply.text).expect("error replies are json");
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
            let err = v.get("error").and_then(Value::as_str).unwrap();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
        // The server is still usable afterwards.
        let reply = s.handle_line(r#"{"cmd":"tenant_open","tenant":"a","workload":"steady"}"#);
        let v = json::parse(&reply.text).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(s.tenant_count(), 1);

        // Duplicate opens and bad phases are rejected without teardown.
        for line in [
            r#"{"cmd":"tenant_open","tenant":"a","workload":"steady"}"#,
            r#"{"cmd":"tenant_step","tenant":"a","phase":"warp"}"#,
            r#"{"cmd":"tenant_step","tenant":"a","repeat":0}"#,
        ] {
            let v = json::parse(&s.handle_line(line).text).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{line}");
        }
        assert_eq!(s.tenant_count(), 1);
    }

    #[test]
    fn a_panicking_tenant_is_closed_and_the_others_go_on() {
        const FAULT: &str = r#"
{"cmd":"tenant_open","tenant":"bad","workload":"faulty"}
{"cmd":"tenant_open","tenant":"good","workload":"steady"}
{"cmd":"tenant_step","tenant":"bad"}
{"cmd":"tenant_step","tenant":"bad"}
{"cmd":"tenant_step","tenant":"bad"}
{"cmd":"tenant_step","tenant":"good"}
{"cmd":"fleet_report"}
{"cmd":"shutdown"}
"#;
        let output = run_session(FAULT);
        assert_eq!(output, run_session(FAULT), "replay must be byte-identical");
        let replies: Vec<Value> = output.lines().map(|l| json::parse(l).unwrap()).collect();
        let ok = |k: usize| replies[k].get("ok").and_then(Value::as_bool);
        let error = |k: usize| replies[k].get("error").and_then(Value::as_str).unwrap();
        assert_eq!(ok(2), Some(true), "the first step runs: {output}");
        assert_eq!(ok(3), Some(false), "{output}");
        assert_eq!(
            error(3),
            "tenant \"bad\" failed: simulated OutOfMemoryError: \
             requested 64 B, capacity 4096 B, live 4080 B"
        );
        assert!(error(4).contains("unknown tenant"), "{output}");
        assert_eq!(ok(5), Some(true), "the other tenant still steps: {output}");
        assert_eq!(ok(6), Some(true), "{output}");
        let tenants = replies[6].get("tenants").and_then(Value::as_obj).unwrap();
        assert_eq!(tenants.keys().collect::<Vec<_>>(), ["good"], "{output}");
    }

    #[test]
    fn a_tenant_that_panics_on_close_gets_an_error_and_the_fleet_goes_on() {
        // `a` panics in its teardown at tenant_close; `b` panics in its
        // second step, and again in the teardown that closes it.
        const CLOSE: &str = r#"
{"cmd":"tenant_open","tenant":"a","workload":"panic-on-drop"}
{"cmd":"tenant_open","tenant":"b","workload":"panic-on-drop"}
{"cmd":"tenant_open","tenant":"good","workload":"steady"}
{"cmd":"tenant_step","tenant":"a"}
{"cmd":"tenant_close","tenant":"a"}
{"cmd":"tenant_step","tenant":"b"}
{"cmd":"tenant_step","tenant":"b"}
{"cmd":"fleet_report"}
{"cmd":"shutdown"}
"#;
        let output = run_session(CLOSE);
        let replies: Vec<Value> = output.lines().map(|l| json::parse(l).unwrap()).collect();
        let ok = |k: usize| replies[k].get("ok").and_then(Value::as_bool);
        let error = |k: usize| replies[k].get("error").and_then(Value::as_str);
        assert_eq!(ok(3), Some(true), "{output}");
        assert_eq!(
            error(4),
            Some("tenant \"a\" failed: workload teardown failed")
        );
        assert_eq!(ok(5), Some(true), "{output}");
        assert_eq!(error(6), Some("tenant \"b\" failed: workload step failed"));
        assert_eq!(ok(7), Some(true), "{output}");
        let tenants = replies[7].get("tenants").and_then(Value::as_obj).unwrap();
        assert_eq!(tenants.keys().collect::<Vec<_>>(), ["good"], "{output}");
    }

    #[test]
    fn oversized_repeat_is_rejected_before_any_step() {
        let mut s = server_on(EnvConfig::default());
        s.handle_line(r#"{"cmd":"tenant_open","tenant":"a","workload":"steady"}"#);
        let step = |s: &mut Server, repeat: u64| {
            let line = format!(r#"{{"cmd":"tenant_step","tenant":"a","repeat":{repeat}}}"#);
            json::parse(&s.handle_line(&line).text).expect("reply parses")
        };
        let v = step(&mut s, MAX_REPEAT + 1);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{v:?}");
        let err = v.get("error").and_then(Value::as_str).unwrap();
        assert!(err.contains("repeat"), "{err}");
        let v = step(&mut s, 2);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("steps").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn tenant_open_beyond_max_tenants_is_rejected() {
        let mut s = server_on(EnvConfig::default());
        let open = |s: &mut Server, name: &str| {
            let line = format!(r#"{{"cmd":"tenant_open","tenant":"{name}","workload":"steady"}}"#);
            json::parse(&s.handle_line(&line).text).expect("reply parses")
        };
        for k in 0..MAX_TENANTS {
            let v = open(&mut s, &format!("t{k}"));
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        }
        let v = open(&mut s, "one-too-many");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{v:?}");
        let err = v.get("error").and_then(Value::as_str).unwrap();
        assert!(err.contains("tenants already open"), "{err}");
        assert_eq!(s.tenant_count(), MAX_TENANTS);
        // Closing one frees a place.
        s.handle_line(r#"{"cmd":"tenant_close","tenant":"t0"}"#);
        let v = open(&mut s, "one-too-many");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
    }

    #[cfg(unix)]
    #[test]
    fn socket_sessions_match_stdin_sessions() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("chameleon-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.sock");
        let server_path = path.clone();
        let handle = std::thread::spawn(move || {
            let mut s = server_on(EnvConfig::default());
            serve_socket(&mut s, &server_path).expect("socket serve");
        });
        // The listener may not be bound yet; retry the connect briefly.
        let stream = loop {
            match UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(_) => std::thread::yield_now(),
            }
        };
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(SESSION.as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut socket_out = String::new();
        for line in BufReader::new(stream).lines() {
            socket_out.push_str(&line.unwrap());
            socket_out.push('\n');
        }
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(socket_out, run_session(SESSION));
    }
}
