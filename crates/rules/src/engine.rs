//! The rule engine: holds an ordered rule set and tuning parameters,
//! evaluates every rule against every profiled context, and emits
//! suggestions (first matching rule per context wins).
//!
//! Two gates from the paper are enforced here:
//!
//! * **Stability (Definition 3.1)** — rules whose condition reads a size
//!   metric only fire when the context's maximal-size deviation is within
//!   the stability threshold ("size values are required to be tight, while
//!   operation counts are not restricted").
//! * **Potential** — space-motivated rules only fire when the context's
//!   potential saving exceeds a configurable floor ("we can avoid any
//!   space-optimizing replacement when the potential space savings seems
//!   negligible", §3.3.1).

use crate::analyze::{analyze, LintReport};
use crate::ast::{Category, Expr, Metric, Rule, TraceMetric};
use crate::builtin::{BUILTIN_RULES, DEFAULT_PARAMS};
use crate::check::validate;
use crate::diag::{line_col, RuleError, Severity};
use crate::eval::{eval, MetricEnv, Value};
use crate::parser::parse_rules;
use crate::suggest::Suggestion;
use chameleon_profiler::{ProfileReport, StabilityConfig};
use chameleon_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How the engine reacts to static-analysis findings on added rulesets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintMode {
    /// Skip the analyzer entirely.
    Off,
    /// Analyze every added batch; keep the findings (see
    /// [`RuleEngine::lint_reports`]) and surface them as `lint_finding`
    /// telemetry events, but never reject rules.
    #[default]
    Warn,
    /// Like `Warn`, but [`RuleEngine::add_rules`] fails when the batch has
    /// any `Error`-severity finding (unsatisfiable condition,
    /// kind-mismatched target, …) and adds none of its rules.
    Deny,
}

/// The Chameleon rule engine.
///
/// # Examples
///
/// ```
/// use chameleon_rules::RuleEngine;
///
/// let mut engine = RuleEngine::builtin();
/// engine.set_param("SMALL", 12.0);
/// engine
///     .add_rules(r#"LinkedHashMap : maxSize < 4 -> ArrayMap "Space: tiny""#)
///     .unwrap();
/// assert!(engine.rules().len() > 10);
/// ```
#[derive(Debug)]
pub struct RuleEngine {
    rules: Vec<(Rule, String)>,
    params: HashMap<String, f64>,
    stability: StabilityConfig,
    min_potential_bytes: u64,
    lint_mode: LintMode,
    /// One analyzer report per successfully added batch (paired with the
    /// batch source). Analysis is per batch: cross-batch shadowing is not
    /// checked.
    lint_reports: Vec<(LintReport, String)>,
    /// How many of `lint_reports` have already been emitted as telemetry
    /// events (so repeated evaluations do not duplicate them).
    lint_emitted: AtomicUsize,
}

impl Default for RuleEngine {
    fn default() -> Self {
        RuleEngine::new()
    }
}

impl RuleEngine {
    /// Empty engine with the default parameter table and gates.
    pub fn new() -> Self {
        RuleEngine {
            rules: Vec::new(),
            params: DEFAULT_PARAMS
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            stability: StabilityConfig::default(),
            min_potential_bytes: 0,
            lint_mode: LintMode::default(),
            lint_reports: Vec::new(),
            lint_emitted: AtomicUsize::new(0),
        }
    }

    /// Engine preloaded with the Table 2 built-in rules.
    pub fn builtin() -> Self {
        let mut e = RuleEngine::new();
        e.add_rules(BUILTIN_RULES).expect("builtin rules are valid");
        e
    }

    /// Parses, validates, statically analyzes (per [`LintMode`]) and
    /// appends rules from `src`. Returns how many rules were added.
    ///
    /// # Errors
    ///
    /// Returns the first parse or validation error (with span into `src`),
    /// or — in [`LintMode::Deny`] — the most severe analyzer `Error`
    /// finding; on error no rules from `src` are added.
    pub fn add_rules(&mut self, src: &str) -> Result<usize, RuleError> {
        let parsed = parse_rules(src)?;
        for rule in &parsed {
            validate(rule, &self.params, src)?;
        }
        if self.lint_mode != LintMode::Off {
            let mut report = analyze(&parsed, &self.params, src);
            // The parameter table is engine-global and shared across
            // batches; "unused in this one batch" is not a finding here.
            report.diagnostics.retain(|d| d.code != "unused-param");
            if self.lint_mode == LintMode::Deny {
                if let Some(err) = report.deny_error(Severity::Error, src) {
                    return Err(err);
                }
            }
            self.lint_reports.push((report, src.to_owned()));
        }
        let n = parsed.len();
        self.rules
            .extend(parsed.into_iter().map(|r| (r, src.to_owned())));
        Ok(n)
    }

    /// Sets how analyzer findings are handled for subsequently added rules.
    pub fn set_lint_mode(&mut self, mode: LintMode) {
        self.lint_mode = mode;
    }

    /// The current lint mode.
    pub fn lint_mode(&self) -> LintMode {
        self.lint_mode
    }

    /// Analyzer reports for every added batch (with the batch source the
    /// report's spans index into), in addition order.
    pub fn lint_reports(&self) -> &[(LintReport, String)] {
        &self.lint_reports
    }

    /// Binds (or rebinds) a tuning parameter.
    pub fn set_param(&mut self, name: &str, value: f64) {
        self.params.insert(name.to_owned(), value);
    }

    /// Reads a tuning parameter.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.get(name).copied()
    }

    /// Replaces the stability gate configuration.
    pub fn set_stability(&mut self, cfg: StabilityConfig) {
        self.stability = cfg;
    }

    /// Sets the minimum potential (bytes) for space-motivated rules.
    pub fn set_min_potential(&mut self, bytes: u64) {
        self.min_potential_bytes = bytes;
    }

    /// The installed rules, in priority order.
    pub fn rules(&self) -> Vec<&Rule> {
        self.rules.iter().map(|(r, _)| r).collect()
    }

    /// Evaluates all rules over all profiled contexts; at most one
    /// suggestion per context (rule order is priority order). Suggestions
    /// come back in the report's ranking order (highest potential first).
    pub fn evaluate(&self, report: &ProfileReport) -> Vec<Suggestion> {
        self.evaluate_traced(report, None)
    }

    /// Like [`RuleEngine::evaluate`], additionally emitting one
    /// `rule_decision` audit event per examined context to `telemetry`
    /// (when attached): the metric values the engine saw, whether a rule
    /// fired, and — if one did — the rule text and the rendered suggestion.
    /// The paper's §4 reports become reconstructible from the event log.
    pub fn evaluate_traced(
        &self,
        report: &ProfileReport,
        telemetry: Option<&Telemetry>,
    ) -> Vec<Suggestion> {
        if let Some(t) = telemetry {
            self.emit_lint_findings(t);
        }
        let mut out = Vec::new();
        for profile in &report.contexts {
            if profile.trace.instances == 0 {
                continue;
            }
            let before = out.len();
            let env = MetricEnv {
                trace: &profile.trace,
                heap: &profile.heap,
                params: &self.params,
            };
            let size_stable = self.stability.size_stable(&profile.trace);
            for (rule, _) in &self.rules {
                if !rule.src_type.matches(&profile.src_type) {
                    continue;
                }
                if mentions_size_metric(&rule.cond) && !size_stable {
                    continue;
                }
                let category = rule.category();
                if matches!(category, Category::Space | Category::SpaceTime)
                    && profile.potential_bytes < self.min_potential_bytes
                {
                    continue;
                }
                let fired = matches!(eval(&rule.cond, &env), Value::Bool(true));
                if !fired {
                    continue;
                }
                let resolved_capacity = match &rule.action {
                    crate::ast::Action::Replace {
                        capacity: Some(c), ..
                    } => Some(env.capacity(*c)),
                    crate::ast::Action::SetInitialCapacity(c) => Some(env.capacity(*c)),
                    _ => None,
                };
                let current_impl = profile
                    .trace
                    .impl_counts
                    .iter()
                    .max_by_key(|(_, n)| **n)
                    .map(|(name, _)| (*name).to_owned())
                    .unwrap_or_else(|| profile.src_type.clone());
                // Suggesting the status quo is noise.
                if let crate::ast::Action::Replace { impl_name, .. } = &rule.action {
                    if *impl_name == current_impl && resolved_capacity.is_none() {
                        continue;
                    }
                }
                out.push(Suggestion {
                    ctx: profile.ctx,
                    label: profile.label.clone(),
                    src_type: profile.src_type.clone(),
                    current_impl,
                    action: rule.action.clone(),
                    resolved_capacity,
                    message: rule.message.clone(),
                    category,
                    potential_bytes: profile.potential_bytes,
                    rule_text: rule.to_string(),
                });
                break; // first matching rule wins for this context
            }
            if let Some(t) = telemetry {
                let fired = out.len() > before;
                let mut e = t.event("rule_decision", 0);
                e.str("label", &profile.label)
                    .str("src_type", &profile.src_type)
                    .num("instances", profile.trace.instances)
                    .num("potential_bytes", profile.potential_bytes)
                    .float("max_size_avg", profile.trace.max_size_avg())
                    .num("max_size_peak", profile.trace.max_size_peak)
                    .float("all_ops_avg", profile.trace.all_ops_avg())
                    .float("never_used_fraction", profile.trace.never_used_fraction())
                    .bool("size_stable", size_stable)
                    .bool("fired", fired);
                if let Some(s) = fired.then(|| out.last()).flatten() {
                    e.str("rule_text", &s.rule_text)
                        .str("category", &format!("{:?}", s.category))
                        .str("current_impl", &s.current_impl)
                        .str("suggestion", &s.to_string());
                    if let Some(c) = s.resolved_capacity {
                        e.num("resolved_capacity", u64::from(c));
                    }
                }
            }
        }
        out
    }

    /// Emits one `lint_finding` event per analyzer diagnostic, each batch
    /// at most once over the engine's lifetime.
    fn emit_lint_findings(&self, t: &Telemetry) {
        let start = self
            .lint_emitted
            .swap(self.lint_reports.len(), Ordering::AcqRel);
        for (report, src) in self.lint_reports.iter().skip(start) {
            for d in &report.diagnostics {
                let (line, column) = line_col(src, d.span.start);
                t.event("lint_finding", 0)
                    .str("severity", d.severity.name())
                    .str("code", d.code)
                    .str("message", &d.message)
                    .num("line", line as u64)
                    .num("column", column as u64);
            }
        }
    }
}

/// Whether the expression reads a size metric (which subjects the rule to
/// the Definition 3.1 size-stability gate).
fn mentions_size_metric(expr: &Expr) -> bool {
    match expr {
        Expr::Metric(
            Metric::Trace(TraceMetric::Size | TraceMetric::MaxSize | TraceMetric::PeakSize),
            _,
        ) => true,
        Expr::Metric(..) | Expr::Num(..) | Expr::Param(..) => false,
        Expr::Not(e, _) | Expr::Neg(e, _) => mentions_size_metric(e),
        Expr::Bin(_, a, b, _) => mentions_size_metric(a) || mentions_size_metric(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_collections::factory::CollectionFactory;
    use chameleon_collections::runtime::Runtime;
    use chameleon_heap::Heap;
    use chameleon_profiler::Profiler;

    /// Runs a tiny program with known pathologies and checks the builtin
    /// rules catch them.
    fn profile_small_program() -> (ProfileReport, Heap) {
        let heap = Heap::new();
        let rt = Runtime::new(heap.clone());
        let profiler = Profiler::install(&rt);
        let f = CollectionFactory::new(rt);

        // Pathology 1: small long-lived HashMaps (ArrayMap candidates).
        let mut keep = Vec::new();
        {
            let _g = f.enter("tvla.HashMapFactory:31");
            for _ in 0..20 {
                let mut m = f.new_map::<i64, i64>(None);
                for i in 0..5 {
                    m.put(i, i);
                }
                let _ = m.get(&0);
                keep.push(m);
            }
        }
        // Pathology 2: LinkedLists that are never structurally modified.
        {
            let _g = f.enter("bloat.Node:17");
            for _ in 0..10 {
                let _l = f.new_linked_list::<i64>();
            }
        }
        // Pathology 3: lists that outgrow their initial capacity a lot.
        {
            let _g = f.enter("soot.UseBoxes:88");
            for _ in 0..5 {
                let mut l = f.new_list::<i64>(None);
                for i in 0..100 {
                    l.add(i);
                }
                let _ = l.get(3);
            }
        }
        heap.gc();
        drop(keep);
        heap.gc();
        (ProfileReport::build(&profiler, &heap), heap)
    }

    #[test]
    fn builtin_rules_catch_known_pathologies() {
        let (report, _heap) = profile_small_program();
        let engine = RuleEngine::builtin();
        let suggestions = engine.evaluate(&report);
        let by_label = |needle: &str| {
            suggestions
                .iter()
                .find(|s| s.label.contains(needle))
                .unwrap_or_else(|| panic!("no suggestion for {needle}: {suggestions:?}"))
        };

        let small_maps = by_label("tvla.HashMapFactory:31");
        assert!(small_maps.rule_text.contains("ArrayMap"), "{small_maps:?}");
        assert!(small_maps.auto_applicable());

        let empty_linked = by_label("bloat.Node:17");
        assert!(
            empty_linked.rule_text.contains("Lazy"),
            "never-used LinkedLists should be lazified: {empty_linked:?}"
        );

        let grown = by_label("soot.UseBoxes:88");
        assert_eq!(grown.resolved_capacity, Some(100));
    }

    #[test]
    fn one_suggestion_per_context() {
        let (report, _heap) = profile_small_program();
        let engine = RuleEngine::builtin();
        let suggestions = engine.evaluate(&report);
        let mut labels: Vec<&str> = suggestions.iter().map(|s| s.label.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), suggestions.len());
    }

    #[test]
    fn min_potential_gates_space_rules() {
        let (report, _heap) = profile_small_program();
        let mut engine = RuleEngine::builtin();
        engine.set_min_potential(u64::MAX);
        let suggestions = engine.evaluate(&report);
        assert!(
            suggestions
                .iter()
                .all(|s| matches!(s.category, Category::Time | Category::Other)),
            "space rules must be gated: {suggestions:?}"
        );
    }

    #[test]
    fn stability_gates_size_rules() {
        // A context with wildly bimodal sizes must not get a size-based
        // replacement.
        let heap = Heap::new();
        let rt = Runtime::new(heap.clone());
        let profiler = Profiler::install(&rt);
        let f = CollectionFactory::new(rt);
        let mut keep = Vec::new();
        {
            let _g = f.enter("bimodal.Site:1");
            for round in 0..20 {
                let mut m = f.new_map::<i64, i64>(None);
                let n = if round % 2 == 0 { 1 } else { 500 };
                for i in 0..n {
                    m.put(i, i);
                }
                keep.push(m);
            }
        }
        heap.gc();
        drop(keep);
        heap.gc();
        let report = ProfileReport::build(&profiler, &heap);
        let engine = RuleEngine::builtin();
        let suggestions = engine.evaluate(&report);
        let s = suggestions
            .iter()
            .find(|s| s.label.contains("bimodal.Site:1"));
        // Either nothing fires, or the variance-based SizeAdapting rule
        // does — but never the maxSize-based ArrayMap rule.
        if let Some(s) = s {
            assert!(
                s.rule_text.contains("SizeAdaptingMap"),
                "unstable context must not get a size-gated rule: {s:?}"
            );
        }
    }

    #[test]
    fn user_rules_take_priority_order() {
        let (report, _heap) = profile_small_program();
        let mut engine = RuleEngine::new();
        engine
            .add_rules(r#"HashMap : instances > 0 -> LinkedHashMap "Space: always""#)
            .expect("valid");
        let suggestions = engine.evaluate(&report);
        let s = suggestions
            .iter()
            .find(|s| s.src_type == "HashMap")
            .expect("fires");
        assert!(s.rule_text.contains("LinkedHashMap"));
    }

    #[test]
    fn decision_audit_reconstructs_suggestions() {
        let (report, _heap) = profile_small_program();
        let engine = RuleEngine::builtin();
        let expected: Vec<String> = engine
            .evaluate(&report)
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(!expected.is_empty());

        let t = Telemetry::new();
        let traced = engine.evaluate_traced(&report, Some(&t));
        assert_eq!(
            traced.len(),
            expected.len(),
            "tracing must not alter output"
        );

        let log = t.drain_events();
        let examined = report
            .contexts
            .iter()
            .filter(|p| p.trace.instances > 0)
            .count();
        let lines = chameleon_telemetry::json::validate_jsonl(
            &log,
            &["ev", "t", "label", "src_type", "instances", "fired"],
        )
        .expect("audit log is valid JSONL");
        assert_eq!(lines, examined, "one rule_decision per examined context");

        // The fired events alone reconstruct the suggestion list exactly.
        let mut reconstructed = Vec::new();
        for line in log.lines() {
            let v = chameleon_telemetry::json::parse(line).unwrap();
            assert_eq!(v.get("ev").unwrap().as_str(), Some("rule_decision"));
            if v.get("fired").unwrap().as_bool() == Some(true) {
                reconstructed.push(v.get("suggestion").unwrap().as_str().unwrap().to_owned());
                assert!(v.get("rule_text").is_some());
                assert!(v.get("category").is_some());
            } else {
                assert!(v.get("suggestion").is_none());
            }
        }
        assert_eq!(reconstructed, expected);
    }

    #[test]
    fn lint_modes_gate_defective_rulesets() {
        // An unsatisfiable condition: Error-severity finding.
        let bad = r#"HashMap : maxSize > 16 && maxSize < 4 -> ArrayMap "Space: never""#;

        // Warn (default): accepted, finding recorded.
        let mut warn = RuleEngine::new();
        assert_eq!(warn.add_rules(bad).expect("warn mode accepts"), 1);
        let (report, _) = &warn.lint_reports()[0];
        assert_eq!(report.errors(), 1);
        assert_eq!(report.diagnostics[0].code, "unsatisfiable-condition");

        // Deny: rejected atomically, nothing added.
        let mut deny = RuleEngine::new();
        deny.set_lint_mode(LintMode::Deny);
        let err = deny.add_rules(bad).expect_err("deny mode rejects");
        assert!(
            err.message.contains("unsatisfiable-condition"),
            "{}",
            err.message
        );
        assert!(deny.rules().is_empty());
        assert!(deny.lint_reports().is_empty());
        // Clean rules still install in deny mode.
        assert_eq!(deny.add_rules(BUILTIN_RULES).expect("builtins clean"), 14);

        // Off: accepted with no analysis at all.
        let mut off = RuleEngine::new();
        off.set_lint_mode(LintMode::Off);
        assert_eq!(off.add_rules(bad).expect("off mode accepts"), 1);
        assert!(off.lint_reports().is_empty());
    }

    #[test]
    fn lint_findings_are_emitted_once_per_batch() {
        let (report, _heap) = profile_small_program();
        let mut engine = RuleEngine::new();
        engine
            .add_rules("HashMap : maxSize < 16 -> ArrayMap;\nHashMap : maxSize < 4 -> ArrayMap")
            .expect("valid but shadowed");
        let t = Telemetry::new();
        engine.evaluate_traced(&report, Some(&t));
        let first = t.drain_events();
        let lint_lines: Vec<&str> = first
            .lines()
            .filter(|l| l.contains("\"ev\":\"lint_finding\""))
            .collect();
        assert_eq!(lint_lines.len(), 1, "{first}");
        let v = chameleon_telemetry::json::parse(lint_lines[0]).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("shadowed-rule"));
        assert_eq!(v.get("severity").unwrap().as_str(), Some("warn"));
        assert_eq!(v.get("line").unwrap().as_u64(), Some(2));

        // A second evaluation must not re-emit the same findings.
        engine.evaluate_traced(&report, Some(&t));
        let second = t.drain_events();
        assert!(
            !second.contains("lint_finding"),
            "findings re-emitted: {second}"
        );
    }

    #[test]
    fn invalid_user_rule_is_rejected_atomically() {
        let mut engine = RuleEngine::new();
        let before = engine.rules().len();
        let err = engine
            .add_rules("HashMap : maxSize < NOPE -> ArrayMap; HashSet : maxSize > 0 -> ArraySet")
            .expect_err("unbound param");
        assert!(err.message.contains("NOPE"));
        assert_eq!(engine.rules().len(), before);
    }
}
