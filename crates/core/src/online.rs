//! Fully-automatic online replacement mode (§3.3.2, §5.4).
//!
//! Replacements happen *while the program runs*: the profiler keeps
//! aggregating, and every `eval_every_deaths` collection deaths the rule
//! engine re-evaluates the current profile — which take effect at
//! subsequent allocations ("switching is localized as it occurs when a
//! collection object is allocated", §6). The run pays the context-capture
//! cost on every allocation, which is exactly the §5.4 bottleneck the
//! paper measures (TVLA 35% slowdown, PMD 6×).
//!
//! Installation is gated by a **hysteresis policy** (Makor et al. 2025's
//! anti-oscillation stance): a policy change — including a reversal back
//! to the requested default — must win [`OnlineConfig::confirm_evals`]
//! consecutive evaluations, and a suggestion must clear the
//! [`OnlineConfig::min_potential_bytes`] confidence floor, before the
//! factory's [`SelectionPolicy`] is touched. Mid-run installation uses the
//! same `auto_applicable` gate as the converged policy: advisory and
//! cross-kind suggestions are never installed while the program runs.
//!
//! An optional drift tracker ([`OnlineDriftConfig`]) feeds per-type
//! death-rate and potential deltas into a [`SeriesStore`] each evaluation;
//! when [`SeriesStore::detect_drift`] flags a phase shift, the sink
//! re-enables every §4.2 capture shutoff, resets the profiler (fresh
//! aggregation for the new phase) and re-arms the hysteresis counters.

use crate::env::{portable_updates, Env, EnvConfig, PortableUpdate};
use crate::metrics::RunMetrics;
use crate::workload::Workload;
use chameleon_collections::factory::CaptureController;
use chameleon_collections::runtime::{InstanceStats, StatsSink};
use chameleon_collections::SelectionPolicy;
use chameleon_heap::{ContextId, Heap};
use chameleon_profiler::{ProfileReport, Profiler};
use chameleon_rules::{PolicyUpdate, RuleEngine};
use chameleon_telemetry::series::{DriftConfig, SeriesStore};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Online-mode configuration.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Environment for the run (capture should be enabled — that is the
    /// point of the experiment).
    pub env: EnvConfig,
    /// Re-evaluate rules every this many collection deaths.
    pub eval_every_deaths: u64,
    /// §4.2's per-type shutoff: after each evaluation, stop capturing
    /// contexts for requested types whose total observed potential is
    /// below this many bytes (None = never shut off).
    pub shutoff_below_potential: Option<u64>,
    /// Hysteresis window: a policy change must win this many consecutive
    /// evaluations before it is installed (1 = apply immediately, the
    /// pre-hysteresis behaviour). Reversals pay the same price.
    pub confirm_evals: u64,
    /// Confidence floor: suggestions whose potential saving is below this
    /// many bytes never become installation candidates.
    pub min_potential_bytes: u64,
    /// Drift-triggered re-profiling (None = off, the single-run default;
    /// the serve mode enables it per tenant).
    pub drift: Option<OnlineDriftConfig>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            env: EnvConfig::default(),
            eval_every_deaths: 64,
            shutoff_below_potential: None,
            confirm_evals: 2,
            min_potential_bytes: 0,
            drift: None,
        }
    }
}

/// Configuration of the per-run drift tracker.
#[derive(Debug, Clone, Copy)]
pub struct OnlineDriftConfig {
    /// Flag a series when its newest-half mean exceeds its oldest-half
    /// mean by at least this percentage (see [`SeriesStore::detect_drift`]).
    pub growth_pct: f64,
    /// Minimum retained points before a series is considered.
    pub min_points: usize,
    /// Retained points per series (bounded, peak-preserving downsampling).
    pub capacity: usize,
}

impl Default for OnlineDriftConfig {
    fn default() -> Self {
        OnlineDriftConfig {
            growth_pct: 100.0,
            min_points: 4,
            capacity: 64,
        }
    }
}

/// Why an online run could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineError {
    /// The supplied environment was built with `profiling: false`; online
    /// mode needs the profiler to aggregate death statistics between
    /// evaluations.
    NotProfiling,
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::NotProfiling => write!(
                f,
                "online mode requires a profiling environment (set `profiling: true` in EnvConfig)"
            ),
        }
    }
}

impl std::error::Error for OnlineError {}

/// Outcome of an online run.
#[derive(Debug)]
pub struct OnlineResult {
    /// Run metrics (including every capture's cost).
    pub metrics: RunMetrics,
    /// How many rule re-evaluations happened.
    pub evaluations: u64,
    /// How many policy overrides were installed in total.
    pub replacements: u64,
    /// How many installed overrides were reverted to the default.
    pub reverts: u64,
    /// How many drift-triggered re-profilings fired.
    pub drift_events: u64,
    /// The final profile report.
    pub report: ProfileReport,
    /// The converged replacement policy, portably keyed by context frames
    /// (re-appliable to a fresh environment).
    pub converged_policy: Vec<PortableUpdate>,
}

/// A hysteresis key: one (collection kind, context) policy slot. The kind
/// tag keeps the three policy namespaces (list/set/map) apart.
type HKey = (u8, ContextId);

fn hkey(u: &PolicyUpdate) -> HKey {
    match u {
        PolicyUpdate::List(c, _) => (0, *c),
        PolicyUpdate::Set(c, _) => (1, *c),
        PolicyUpdate::Map(c, _) => (2, *c),
    }
}

/// What an evaluation wants a policy slot to hold.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Desired {
    /// No override: the context gets its requested default.
    Default,
    /// This concrete override.
    Update(PolicyUpdate),
}

#[derive(Debug)]
struct KeyState {
    /// What the factory policy currently holds for this slot.
    installed: Desired,
    /// The pending change (None = the slot agrees with `installed`).
    candidate: Option<Desired>,
    /// Consecutive evaluations the candidate has won.
    wins: u64,
    /// Installed switches so far (installs + reverts).
    switches: u64,
}

impl Default for KeyState {
    fn default() -> Self {
        KeyState {
            installed: Desired::Default,
            candidate: None,
            wins: 0,
            switches: 0,
        }
    }
}

/// Per-evaluation outcome of a hysteresis step.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HysteresisStep {
    /// Overrides installed this evaluation.
    pub installs: u64,
    /// Overrides reverted to the default this evaluation.
    pub reverts: u64,
}

/// The anti-oscillation state machine: one [`KeyState`] per policy slot,
/// advanced once per rule evaluation by [`Hysteresis::observe`].
#[derive(Debug)]
pub(crate) struct Hysteresis {
    confirm: u64,
    keys: BTreeMap<HKey, KeyState>,
}

impl Hysteresis {
    pub(crate) fn new(confirm_evals: u64) -> Self {
        Hysteresis {
            confirm: confirm_evals.max(1),
            keys: BTreeMap::new(),
        }
    }

    /// Advances every policy slot one evaluation: `desired` is the set of
    /// overrides this evaluation's suggestions want (already gated on
    /// auto-applicability and the potential floor). A slot whose desired
    /// state differs from its installed state accumulates consecutive
    /// wins; at `confirm` wins the change is applied to `policy`. Any
    /// change of candidate — including the desired set agreeing with the
    /// installed state again — re-arms the counter from scratch.
    pub(crate) fn observe(
        &mut self,
        desired: &BTreeMap<HKey, PolicyUpdate>,
        policy: &mut SelectionPolicy,
    ) -> HysteresisStep {
        // Visit the union of desired slots and slots holding an override
        // or a pending candidate (an installed-but-no-longer-desired slot
        // is a revert candidate; a pending candidate that the profile no
        // longer wants must lose its streak this evaluation, not keep it
        // frozen until the desire reappears).
        let slots: Vec<HKey> = desired
            .keys()
            .copied()
            .chain(
                self.keys
                    .iter()
                    .filter(|(_, ks)| ks.installed != Desired::Default || ks.candidate.is_some())
                    .map(|(k, _)| *k),
            )
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut step = HysteresisStep::default();
        for k in slots {
            let want = desired
                .get(&k)
                .copied()
                .map(Desired::Update)
                .unwrap_or(Desired::Default);
            let ks = self.keys.entry(k).or_default();
            if want == ks.installed {
                ks.candidate = None;
                ks.wins = 0;
                continue;
            }
            if ks.candidate == Some(want) {
                ks.wins += 1;
            } else {
                ks.candidate = Some(want);
                ks.wins = 1;
            }
            if ks.wins < self.confirm {
                continue;
            }
            match want {
                Desired::Update(PolicyUpdate::List(c, sel)) => {
                    policy.set_list(c, sel);
                    step.installs += 1;
                }
                Desired::Update(PolicyUpdate::Set(c, sel)) => {
                    policy.set_set(c, sel);
                    step.installs += 1;
                }
                Desired::Update(PolicyUpdate::Map(c, sel)) => {
                    policy.set_map(c, sel);
                    step.installs += 1;
                }
                Desired::Default => {
                    match k.0 {
                        0 => drop(policy.clear_list(k.1)),
                        1 => drop(policy.clear_set(k.1)),
                        _ => drop(policy.clear_map(k.1)),
                    }
                    step.reverts += 1;
                }
            }
            ks.installed = want;
            ks.candidate = None;
            ks.wins = 0;
            ks.switches += 1;
        }
        step
    }

    /// Re-arms every pending candidate (drift: the evidence it was
    /// accumulating came from the previous phase). Installed overrides
    /// stay; fresh evidence either re-confirms or reverts them.
    pub(crate) fn rearm(&mut self) {
        for ks in self.keys.values_mut() {
            ks.candidate = None;
            ks.wins = 0;
        }
    }

    /// Every installed override, ordered by slot key.
    pub(crate) fn installed_updates(&self) -> Vec<PolicyUpdate> {
        self.keys
            .values()
            .filter_map(|ks| match ks.installed {
                Desired::Update(u) => Some(u),
                Desired::Default => None,
            })
            .collect()
    }

    /// Per-slot switch counts (kind tag, context, switches), ordered by
    /// slot key, slots that never switched omitted.
    pub(crate) fn switch_counts(&self) -> Vec<(u8, ContextId, u64)> {
        self.keys
            .iter()
            .filter(|(_, ks)| ks.switches > 0)
            .map(|(&(kind, ctx), ks)| (kind, ctx, ks.switches))
            .collect()
    }

    /// The largest per-slot switch count (0 = nothing ever switched).
    pub(crate) fn max_switches(&self) -> u64 {
        self.keys.values().map(|ks| ks.switches).max().unwrap_or(0)
    }
}

/// Per-type drift tracker: one death-rate series and one potential-delta
/// series per requested type, sampled once per evaluation.
#[derive(Debug)]
struct DriftTracker {
    cfg: OnlineDriftConfig,
    series: SeriesStore,
    /// Stable per-type series keys: type → base key (base = death rate,
    /// base + 1 = potential delta).
    type_keys: BTreeMap<String, u64>,
    prev_deaths: BTreeMap<String, u64>,
    prev_potential: BTreeMap<String, u64>,
    /// Evaluation ordinal within the current phase (series cycle).
    ticks: u64,
}

impl DriftTracker {
    fn new(cfg: OnlineDriftConfig) -> Self {
        DriftTracker {
            cfg,
            series: SeriesStore::new(cfg.capacity),
            type_keys: BTreeMap::new(),
            prev_deaths: BTreeMap::new(),
            prev_potential: BTreeMap::new(),
            ticks: 0,
        }
    }

    /// Samples this evaluation's report; returns true when a phase shift
    /// was detected (and resets itself for the new phase).
    fn observe(&mut self, report: &ProfileReport) -> bool {
        let mut deaths: BTreeMap<&str, u64> = BTreeMap::new();
        let mut potential: BTreeMap<&str, u64> = BTreeMap::new();
        for c in &report.contexts {
            *deaths.entry(c.src_type.as_str()).or_insert(0) += c.trace.instances;
            *potential.entry(c.src_type.as_str()).or_insert(0) += c.potential_bytes;
        }
        let t = self.ticks;
        self.ticks += 1;
        for (&ty, &total) in &deaths {
            let base = match self.type_keys.get(ty) {
                Some(&k) => k,
                None => {
                    let k = (self.type_keys.len() as u64) * 2;
                    self.type_keys.insert(ty.to_owned(), k);
                    k
                }
            };
            if !self.prev_deaths.contains_key(ty) {
                // A type first seen at tick `t` was silent before; without
                // the zero backfill its series would start flat-high and a
                // quiet-then-hot type could never register as drift.
                for c in 0..t {
                    self.series.push(base, c, 0);
                    self.series.push(base + 1, c, 0);
                }
            }
            let d_rate = total.saturating_sub(self.prev_deaths.get(ty).copied().unwrap_or(0));
            let p_delta =
                potential[ty].saturating_sub(self.prev_potential.get(ty).copied().unwrap_or(0));
            self.series.push(base, t, d_rate);
            self.series.push(base + 1, t, p_delta);
            self.prev_deaths.insert(ty.to_owned(), total);
            self.prev_potential.insert(ty.to_owned(), potential[ty]);
        }
        let findings = self.series.detect_drift(&DriftConfig {
            growth_pct: self.cfg.growth_pct,
            min_points: self.cfg.min_points,
        });
        if findings.is_empty() {
            return false;
        }
        // Phase shift: restart the series (and the delta baselines — the
        // profiler is reset right after, so cumulative totals restart too)
        // so steady post-shift behaviour does not re-fire every evaluation.
        self.series = SeriesStore::new(self.cfg.capacity);
        self.prev_deaths.clear();
        self.prev_potential.clear();
        self.ticks = 0;
        true
    }
}

/// Everything an evaluation mutates, borrowed once per evaluation.
struct AdaptState {
    hysteresis: Hysteresis,
    drift: Option<DriftTracker>,
}

/// The online sink: aggregates deaths into the profiler and re-evaluates
/// the rules on a fixed death cadence. Shared with `core::serve`, which
/// drives one sink per tenant.
pub(crate) struct OnlineSink {
    profiler: Rc<Profiler>,
    heap: Heap,
    engine: Arc<RuleEngine>,
    policy: Rc<RefCell<SelectionPolicy>>,
    capture: CaptureController,
    deaths: Cell<u64>,
    every: u64,
    evaluations: Cell<u64>,
    replacements: Cell<u64>,
    reverts: Cell<u64>,
    drift_events: Cell<u64>,
    min_potential: u64,
    shutoff: Option<u64>,
    state: RefCell<AdaptState>,
}

impl OnlineSink {
    /// Builds a sink bound to `env`'s profiler, policy and capture state.
    /// Fails when the environment does not profile — online adaptation
    /// cannot evaluate rules without death aggregates.
    pub(crate) fn new(
        env: &Env,
        engine: Arc<RuleEngine>,
        config: &OnlineConfig,
    ) -> Result<Rc<OnlineSink>, OnlineError> {
        let Some(profiler) = env.profiler.clone() else {
            return Err(OnlineError::NotProfiling);
        };
        Ok(Rc::new(OnlineSink {
            profiler,
            heap: env.heap.clone(),
            engine,
            policy: env.factory.policy(),
            capture: env.factory.capture_controller(),
            deaths: Cell::new(0),
            every: config.eval_every_deaths.max(1),
            evaluations: Cell::new(0),
            replacements: Cell::new(0),
            reverts: Cell::new(0),
            drift_events: Cell::new(0),
            min_potential: config.min_potential_bytes,
            shutoff: config.shutoff_below_potential,
            state: RefCell::new(AdaptState {
                hysteresis: Hysteresis::new(config.confirm_evals),
                drift: config.drift.map(DriftTracker::new),
            }),
        }))
    }

    pub(crate) fn death_total(&self) -> u64 {
        self.deaths.get()
    }

    pub(crate) fn evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    pub(crate) fn replacements(&self) -> u64 {
        self.replacements.get()
    }

    pub(crate) fn reverts(&self) -> u64 {
        self.reverts.get()
    }

    pub(crate) fn drift_events(&self) -> u64 {
        self.drift_events.get()
    }

    pub(crate) fn disabled_types(&self) -> Vec<String> {
        self.capture.disabled_types()
    }

    /// Every installed override, ordered by policy slot.
    pub(crate) fn installed_updates(&self) -> Vec<PolicyUpdate> {
        self.state.borrow().hysteresis.installed_updates()
    }

    /// Per-slot switch counts (kind tag, context, switches).
    pub(crate) fn switch_counts(&self) -> Vec<(u8, ContextId, u64)> {
        self.state.borrow().hysteresis.switch_counts()
    }

    /// The largest per-slot switch count.
    pub(crate) fn max_switches(&self) -> u64 {
        self.state.borrow().hysteresis.max_switches()
    }

    /// One rule re-evaluation: build the report, apply the §4.2 shutoff,
    /// sample the drift tracker, then advance the hysteresis machine.
    fn evaluate(&self) {
        self.evaluations.set(self.evaluations.get() + 1);
        let report = ProfileReport::build(&self.profiler, &self.heap);

        // §4.2 per-type shutoff: if every context of a requested type shows
        // negligible potential, stop paying capture cost for that type.
        if let Some(floor) = self.shutoff {
            use std::collections::HashMap;
            let mut by_type: HashMap<&str, u64> = HashMap::new();
            for c in &report.contexts {
                *by_type.entry(c.src_type.as_str()).or_insert(0) += c.potential_bytes;
            }
            // hashmap-iter-ok: each type is judged against the floor
            // independently; visit order cannot change which are disabled.
            for (ty, potential) in by_type {
                if potential < floor {
                    self.capture.disable_tracking_for(ty);
                }
            }
        }

        let mut st = self.state.borrow_mut();
        if let Some(tracker) = st.drift.as_mut() {
            if tracker.observe(&report) {
                self.drift_events.set(self.drift_events.get() + 1);
                // The tenant changed phase: what was learned about quiet
                // types no longer holds. Re-enable capture for every
                // shut-off type, restart profiling aggregation, and re-arm
                // the hysteresis counters (installed overrides stay; fresh
                // evidence re-confirms or reverts them).
                for ty in self.capture.disabled_types() {
                    self.capture.enable_tracking_for(&ty);
                }
                self.profiler.reset();
                st.hysteresis.rearm();
                // The desired set below would be computed from the stale
                // (pre-shift) profile; skip this evaluation's installs.
                return;
            }
        }

        // The desired policy for this evaluation. Mid-run installation is
        // gated exactly like the converged policy: only `auto_applicable`
        // suggestions (policy_update() is Some) that clear the potential
        // floor become candidates.
        let suggestions = self.engine.evaluate(&report);
        let mut desired: BTreeMap<HKey, PolicyUpdate> = BTreeMap::new();
        for s in &suggestions {
            if s.potential_bytes < self.min_potential {
                continue;
            }
            let Some(u) = s.policy_update() else { continue };
            desired.insert(hkey(&u), u);
        }

        let step = st
            .hysteresis
            .observe(&desired, &mut self.policy.borrow_mut());
        self.replacements
            .set(self.replacements.get() + step.installs);
        self.reverts.set(self.reverts.get() + step.reverts);
    }
}

impl StatsSink for OnlineSink {
    fn on_death(&self, ctx: Option<ContextId>, stats: &InstanceStats) {
        self.profiler.on_death(ctx, stats);
        self.deaths.set(self.deaths.get() + 1);
        if !self.deaths.get().is_multiple_of(self.every) {
            return;
        }
        self.evaluate();
    }
}

/// Runs `workload` in fully-automatic mode.
///
/// Fails with [`OnlineError::NotProfiling`] when `config.env` disables
/// profiling — online mode cannot evaluate rules without the profiler's
/// aggregates. (This used to panic; callers such as the CLI now surface a
/// one-line error instead.)
pub fn run_online(
    workload: &dyn Workload,
    engine: Arc<RuleEngine>,
    config: &OnlineConfig,
) -> Result<OnlineResult, OnlineError> {
    let env = Env::new(&config.env);
    let sink = OnlineSink::new(&env, engine, config)?;
    env.rt.set_sink(sink.clone());

    env.run(workload);

    let report = ProfileReport::build(&sink.profiler, &env.heap);
    let converged: Vec<_> = sink
        .engine
        .evaluate(&report)
        .into_iter()
        .filter(|s| s.auto_applicable())
        .collect();
    let converged_policy = portable_updates(&converged, &env.heap);

    Ok(OnlineResult {
        metrics: env.metrics(),
        evaluations: sink.evaluations(),
        replacements: sink.replacements(),
        reverts: sink.reverts(),
        drift_events: sink.drift_events(),
        report,
        converged_policy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_collections::factory::{CaptureConfig, CaptureMethod, MapChoice, Selection};
    use chameleon_collections::CollectionFactory;

    /// Allocates waves of small maps; later waves should come out as
    /// ArrayMaps once the engine has seen enough deaths.
    fn waves() -> impl Workload {
        ("waves", |f: &CollectionFactory| {
            let _g = f.enter("wave.Site:5");
            for _ in 0..300 {
                let mut m = f.new_map::<i64, i64>(None);
                for i in 0..4 {
                    m.put(i, i);
                }
            }
        })
    }

    #[test]
    fn online_mode_replaces_mid_run() {
        let result = run_online(
            &waves(),
            Arc::new(RuleEngine::builtin()),
            &OnlineConfig {
                eval_every_deaths: 50,
                ..OnlineConfig::default()
            },
        )
        .expect("online run");
        assert!(
            result.evaluations >= 2,
            "evaluations: {}",
            result.evaluations
        );
        // With the default hysteresis (confirm_evals = 2) the ArrayMap
        // suggestion wins evaluations 1 and 2 and installs at death 100 of
        // 300 — still mid-run.
        assert!(result.replacements >= 1);
        // The context's instances must show a mixture of implementations:
        // HashMap early, ArrayMap after the install.
        let ctx = &result.report.contexts[0];
        assert!(ctx.trace.impl_counts.contains_key("HashMap"), "{ctx:?}");
        assert!(ctx.trace.impl_counts.contains_key("ArrayMap"), "{ctx:?}");
        // A stable profile never flips back: no reverts.
        assert_eq!(result.reverts, 0);
        assert_eq!(result.drift_events, 0, "drift is off by default");
    }

    #[test]
    fn per_type_shutoff_cuts_capture_cost() {
        // Two types churn: HashMaps with real potential, ArrayLists with
        // none. With the shutoff enabled, list captures stop after the
        // first evaluation.
        let two_types = ("two-types", |f: &CollectionFactory| {
            let _g = f.enter("shut.Site:1");
            for _ in 0..400 {
                let mut m = f.new_map::<i64, i64>(None);
                m.put(1, 1);
                let mut l = f.new_list::<i64>(Some(2));
                l.add(1);
                l.add(2);
                let _ = l.get(0);
            }
        });
        let run = |shutoff| {
            let cfg = OnlineConfig {
                eval_every_deaths: 100,
                shutoff_below_potential: shutoff,
                ..OnlineConfig::default()
            };
            run_online(&two_types, Arc::new(RuleEngine::builtin()), &cfg)
                .expect("online run")
                .metrics
                .capture_count
        };
        let without = run(None);
        let with = run(Some(1_000_000_000)); // absurd floor: everything shuts off
        assert!(
            with < without / 2,
            "shutoff must cut captures: {with} vs {without}"
        );
    }

    #[test]
    fn capture_cost_dominates_online_overhead() {
        // Same workload, capture on vs off: the §5.4 overhead shape.
        let run = |method: CaptureMethod| {
            let cfg = OnlineConfig {
                env: EnvConfig {
                    capture: CaptureConfig {
                        method,
                        ..CaptureConfig::default()
                    },
                    ..EnvConfig::default()
                },
                eval_every_deaths: u64::MAX, // no evaluations: isolate capture
                ..OnlineConfig::default()
            };
            run_online(&waves(), Arc::new(RuleEngine::builtin()), &cfg)
                .expect("online run")
                .metrics
                .sim_time
        };
        let with_capture = run(CaptureMethod::Jvmti);
        let without = run(CaptureMethod::None);
        assert!(
            with_capture as f64 > without as f64 * 1.2,
            "capture must cost >20% on an allocation-heavy run: {with_capture} vs {without}"
        );
    }

    #[test]
    fn misconfigured_env_is_an_error_not_a_panic() {
        // Regression: this used to hit an `.expect(..)` inside run_online.
        let cfg = OnlineConfig {
            env: EnvConfig {
                profiling: false,
                ..EnvConfig::default()
            },
            ..OnlineConfig::default()
        };
        let err = run_online(&waves(), Arc::new(RuleEngine::builtin()), &cfg)
            .expect_err("non-profiling env must be rejected");
        assert_eq!(err, OnlineError::NotProfiling);
        assert!(err.to_string().contains("profiling"), "{err}");
    }

    #[test]
    fn sink_counters_are_exact() {
        use chameleon_collections::OpCounts;

        // The sink's death counter and evaluation cadence: every 16th
        // death triggers exactly one evaluation. Deaths arrive from the
        // env's one mutator (evaluations enter its heap), so one thread.
        let env = Env::new(&EnvConfig::default());
        let sink = OnlineSink::new(
            &env,
            Arc::new(RuleEngine::builtin()),
            &OnlineConfig {
                eval_every_deaths: 16,
                ..OnlineConfig::default()
            },
        )
        .expect("profiling env");

        const DEATHS: u64 = 1_600;
        let stats = InstanceStats {
            ops: OpCounts::default(),
            max_size: 3,
            final_size: 3,
            initial_capacity: 10,
            requested_type: "ArrayList",
            chosen_impl: "ArrayList",
            survivor: false,
        };
        for _ in 0..DEATHS {
            sink.on_death(None, &stats);
        }

        assert_eq!(sink.death_total(), DEATHS);
        assert_eq!(sink.profiler.death_count(), DEATHS);
        assert_eq!(sink.evaluations(), DEATHS / 16);
    }

    #[test]
    fn advisory_suggestions_never_install_mid_run() {
        // Regression (mid-run/converged gate mismatch): an engine whose
        // only rule is advisory must never touch the policy while the
        // program runs — exactly like the converged policy, which filters
        // to `auto_applicable()`.
        let mut engine = RuleEngine::new();
        engine
            .add_rules(r#"HashMap : maxSize > 0 -> Eliminate "Space: advisory only";"#)
            .expect("rule parses");
        let result = run_online(
            &waves(),
            Arc::new(engine),
            &OnlineConfig {
                eval_every_deaths: 50,
                confirm_evals: 1, // even with hysteresis off, the gate holds
                ..OnlineConfig::default()
            },
        )
        .expect("online run");
        assert!(result.evaluations >= 2, "the rule did evaluate");
        assert_eq!(result.replacements, 0, "advisory rules install nothing");
        assert!(result.converged_policy.is_empty());
        let ctx = &result.report.contexts[0];
        assert_eq!(ctx.trace.impl_counts.len(), 1, "{ctx:?}");
        assert!(ctx.trace.impl_counts.contains_key("HashMap"), "{ctx:?}");
    }

    #[test]
    fn suggestions_below_the_potential_floor_are_ignored() {
        // waves() produces a real ArrayMap suggestion; an absurd
        // confidence floor keeps it from ever becoming a candidate.
        let result = run_online(
            &waves(),
            Arc::new(RuleEngine::builtin()),
            &OnlineConfig {
                eval_every_deaths: 50,
                min_potential_bytes: u64::MAX,
                ..OnlineConfig::default()
            },
        )
        .expect("online run");
        assert!(result.evaluations >= 2);
        assert_eq!(result.replacements, 0);
        let ctx = &result.report.contexts[0];
        assert_eq!(ctx.trace.impl_counts.len(), 1, "{ctx:?}");
    }

    // ----- hysteresis state machine -----------------------------------------

    fn update_a() -> PolicyUpdate {
        PolicyUpdate::Map(
            ContextId(7),
            Selection {
                choice: MapChoice::ArrayMap,
                capacity: Some(4),
            },
        )
    }

    fn update_b() -> PolicyUpdate {
        PolicyUpdate::Map(
            ContextId(7),
            Selection {
                choice: MapChoice::LazyMap,
                capacity: None,
            },
        )
    }

    fn desired(updates: &[PolicyUpdate]) -> BTreeMap<HKey, PolicyUpdate> {
        updates.iter().map(|u| (hkey(u), *u)).collect()
    }

    #[test]
    fn hysteresis_installs_at_exactly_k_wins() {
        let mut policy = SelectionPolicy::new();
        let mut h = Hysteresis::new(3);
        let want = desired(&[update_a()]);
        // K-1 consecutive wins: nothing installed.
        for _ in 0..2 {
            let step = h.observe(&want, &mut policy);
            assert_eq!(step, HysteresisStep::default());
            assert!(policy.is_empty());
        }
        // The K-th win installs.
        let step = h.observe(&want, &mut policy);
        assert_eq!(step.installs, 1);
        assert_eq!(policy.len(), 1);
        assert_eq!(h.installed_updates(), vec![update_a()]);
        assert_eq!(h.max_switches(), 1);
        // Steady state: no further switches.
        let step = h.observe(&want, &mut policy);
        assert_eq!(step, HysteresisStep::default());
        assert_eq!(h.max_switches(), 1);
    }

    #[test]
    fn confirm_one_installs_immediately() {
        let mut policy = SelectionPolicy::new();
        let mut h = Hysteresis::new(1);
        let step = h.observe(&desired(&[update_a()]), &mut policy);
        assert_eq!(step.installs, 1);
        assert_eq!(policy.len(), 1);
    }

    #[test]
    fn reversal_rearms_the_counter() {
        let mut policy = SelectionPolicy::new();
        let mut h = Hysteresis::new(3);
        let want_a = desired(&[update_a()]);
        let empty = BTreeMap::new();
        for _ in 0..3 {
            h.observe(&want_a, &mut policy);
        }
        assert_eq!(policy.len(), 1, "A installed");
        // The reversal wins K-1 evaluations ...
        for _ in 0..2 {
            let step = h.observe(&empty, &mut policy);
            assert_eq!(step.reverts, 0);
        }
        // ... then A re-appears: the revert counter must re-arm.
        h.observe(&want_a, &mut policy);
        assert_eq!(policy.len(), 1, "A still installed");
        // K-1 more reversal wins are NOT enough (the streak restarted).
        for _ in 0..2 {
            let step = h.observe(&empty, &mut policy);
            assert_eq!(step.reverts, 0);
            assert_eq!(policy.len(), 1);
        }
        // The K-th consecutive reversal win finally clears the override.
        let step = h.observe(&empty, &mut policy);
        assert_eq!(step.reverts, 1);
        assert!(policy.is_empty());
        assert_eq!(h.installed_updates(), Vec::<PolicyUpdate>::new());
        assert_eq!(h.max_switches(), 2, "one install + one revert");
    }

    #[test]
    fn alternating_profiles_converge_without_flapping() {
        // A flap-prone profile alternates between wanting the override and
        // wanting the default on every evaluation. With K = 2 the
        // candidate never wins twice in a row: zero switches, ever.
        let mut policy = SelectionPolicy::new();
        let mut h = Hysteresis::new(2);
        let want_a = desired(&[update_a()]);
        let empty = BTreeMap::new();
        for i in 0..40 {
            let want = if i % 2 == 0 { &want_a } else { &empty };
            let step = h.observe(want, &mut policy);
            assert_eq!(step, HysteresisStep::default(), "eval {i} switched");
        }
        assert!(policy.is_empty());
        assert_eq!(h.max_switches(), 0);

        // Same for a profile that alternates between two different
        // overrides for the same slot: the candidate changes every
        // evaluation, so its streak never reaches K.
        let mut h = Hysteresis::new(2);
        let want_b = desired(&[update_b()]);
        for i in 0..40 {
            let want = if i % 2 == 0 { &want_a } else { &want_b };
            let step = h.observe(want, &mut policy);
            assert_eq!(step, HysteresisStep::default(), "eval {i} switched");
        }
        assert_eq!(h.max_switches(), 0);

        // Once the profile settles, the winner installs after K evals —
        // exactly one switch for the whole (alternating + settled) phase.
        for _ in 0..2 {
            h.observe(&want_a, &mut policy);
        }
        assert_eq!(policy.len(), 1);
        assert_eq!(h.max_switches(), 1, "at most one switch per phase");
    }

    #[test]
    fn rearm_preserves_installed_overrides_but_drops_candidates() {
        let mut policy = SelectionPolicy::new();
        let mut h = Hysteresis::new(2);
        let want_a = desired(&[update_a()]);
        for _ in 0..2 {
            h.observe(&want_a, &mut policy);
        }
        assert_eq!(policy.len(), 1);
        // A reversal candidate accumulates one win, then drift re-arms.
        h.observe(&BTreeMap::new(), &mut policy);
        h.rearm();
        // One more reversal win is a fresh streak of 1: not enough.
        let step = h.observe(&BTreeMap::new(), &mut policy);
        assert_eq!(step.reverts, 0);
        assert_eq!(policy.len(), 1, "installed override survives rearm");
        // The second consecutive win after the rearm reverts.
        let step = h.observe(&BTreeMap::new(), &mut policy);
        assert_eq!(step.reverts, 1);
        assert!(policy.is_empty());
    }

    // ----- drift-triggered re-profiling --------------------------------------

    #[test]
    fn drift_reenables_shutoff_capture_for_quiet_then_hot_type() {
        // §4.2 shutoff used to be permanent: a type that is quiet early was
        // shut off and could never recover. With the drift trigger, the
        // phase shift re-enables tracking and the hot contexts surface.
        let quiet_then_hot = ("quiet-then-hot", |f: &CollectionFactory| {
            let heap = f.runtime().heap().clone();
            // Phase 1 (map-heavy): 300 sparse maps held live across a GC
            // so the HashMap type shows real potential; 10 quiet lists
            // with none. The first evaluation shuts ArrayList capture off.
            let mut keep = Vec::new();
            {
                let _g = f.enter("qh.Maps:1");
                for _ in 0..300 {
                    let mut m = f.new_map::<i64, i64>(None);
                    m.put(1, 1);
                    keep.push(m);
                }
            }
            {
                let _g = f.enter("qh.QuietList:2");
                for _ in 0..10 {
                    let mut l = f.new_list::<i64>(None);
                    l.add(1);
                }
            }
            heap.gc();
            drop(keep);
            // Phase 2 (list-heavy): the lists turn hot. Without the drift
            // trigger every one of these dies uncaptured.
            let _g = f.enter("qh.HotList:3");
            for _ in 0..300 {
                let mut l = f.new_list::<i64>(None);
                for i in 0..64 {
                    l.add(i);
                }
            }
        });
        let run = |drift: Option<OnlineDriftConfig>| {
            run_online(
                &quiet_then_hot,
                Arc::new(RuleEngine::builtin()),
                &OnlineConfig {
                    eval_every_deaths: 50,
                    shutoff_below_potential: Some(1),
                    drift,
                    ..OnlineConfig::default()
                },
            )
            .expect("online run")
        };

        // Control: permanent shutoff. The hot-list context never exists.
        let control = run(None);
        assert_eq!(control.drift_events, 0);
        assert!(
            !control
                .report
                .contexts
                .iter()
                .any(|c| c.label.contains("qh.HotList")),
            "without drift the hot lists stay uncaptured"
        );

        // With drift: the phase shift fires, capture is re-enabled, and
        // the hot context is profiled (and suggested on) again.
        let adapted = run(Some(OnlineDriftConfig::default()));
        assert!(adapted.drift_events >= 1, "{:?}", adapted.drift_events);
        let hot = adapted
            .report
            .contexts
            .iter()
            .find(|c| c.label.contains("qh.HotList"))
            .expect("hot-list context captured after drift re-enable");
        assert!(hot.trace.instances > 0);
        assert!(
            adapted
                .converged_policy
                .iter()
                .any(|u| u.src_type == "ArrayList"),
            "the recovered type converges to a policy update: {:?}",
            adapted.converged_policy
        );
    }
}
