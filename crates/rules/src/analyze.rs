//! Whole-ruleset semantic static analysis.
//!
//! Where [`crate::check`] validates one rule in isolation (types, bound
//! parameters, known targets), this pass reasons about the *ruleset*: it
//! runs an interval abstract domain over the metric space (every profiled
//! metric is non-negative; `instances` is at least 1 on any context the
//! engine examines; parameters are known constants) and reports
//!
//! * **unsatisfiable conditions** — `maxSize < 0`, or
//!   `x > A && x < B` once parameter substitution makes `A >= B`;
//! * **shadowed rules** — a rule whose matched region is covered by the
//!   union of higher-priority rules and therefore can never fire under
//!   first-match-wins evaluation; exact for the single-variable interval
//!   fragment, with a conservative "possibly shadowed" verdict otherwise;
//! * **suggestion soundness** — the action target's collection kind must
//!   be compatible with the rule's type pattern (no `List : … -> HashMap`),
//!   resolved against the shared [`kinds`] registry;
//! * **exact duplicates** — a rule repeating an earlier rule's matched
//!   types, action and (semantically, by DNF-region equality) condition;
//!   decided only when both regions are fully exact, reported as `Info`;
//! * **hygiene** — undefined and unused parameters, tautological
//!   conditions, dead type patterns.
//!
//! Soundness stance: every `Error`/`Warn` is backed by a decision the
//! domain makes exactly; over-approximation only ever *suppresses*
//! findings or downgrades them to `Info` ("possibly shadowed"), never
//! invents them. Two deliberate caveats: the evaluator compares `==`/`!=`
//! with a tiny epsilon while the domain treats them as exact points, and
//! multi-metric or nonlinear atoms (e.g. `maxSize > initialCapacity`) are
//! opaque — conditions containing them are never reported unsatisfiable or
//! tautological and never *definitely* shadow anything.

use crate::ast::{Action, BinOp, Expr, Rule, TypePat};
use crate::check;
use crate::diag::{line_col, Diagnostic, RuleError, Severity, Span};
use crate::interval::{Interval, IntervalSet};
use crate::kinds::{self, Kind};
use chameleon_telemetry::json;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// DNF size cap: conditions whose disjunctive normal form exceeds this many
/// conjuncts degrade to a single opaque conjunct (conservative, never
/// reported unsat/tautological/shadowing).
const MAX_CONJUNCTS: usize = 64;

// ---------------------------------------------------------------------------
// Metric domains
// ---------------------------------------------------------------------------

/// The abstract universe of one metric. All metrics are non-negative;
/// `instances` is at least 1 because the engine skips contexts that never
/// allocated.
fn domain(key: &str) -> IntervalSet {
    if key == "instances" {
        IntervalSet::from(Interval::new(1.0, true, f64::INFINITY, false))
    } else {
        IntervalSet::full()
    }
}

/// Whether `set` covers the whole universe of `key` (i.e. constrains
/// nothing).
fn full_for(key: &str, set: &IntervalSet) -> bool {
    set.covers(&domain(key))
}

// ---------------------------------------------------------------------------
// Affine atom extraction
// ---------------------------------------------------------------------------

/// A numeric rule expression after parameter substitution, reduced to
/// `a * metric + b` where possible.
enum Affine {
    /// A known constant.
    Const(f64),
    /// `a * metric(key) + b` with `a != 0`.
    Lin { key: String, a: f64, b: f64 },
    /// Multi-metric, nonlinear, or references an unbound parameter.
    Opaque,
}

fn affine(expr: &Expr, params: &HashMap<String, f64>) -> Affine {
    match expr {
        Expr::Num(n, _) => Affine::Const(*n),
        Expr::Metric(m, _) => Affine::Lin {
            key: m.to_string(),
            a: 1.0,
            b: 0.0,
        },
        Expr::Param(name, _) => match params.get(name) {
            Some(v) if !v.is_nan() => Affine::Const(*v),
            _ => Affine::Opaque,
        },
        Expr::Neg(inner, _) => match affine(inner, params) {
            Affine::Const(c) => Affine::Const(-c),
            Affine::Lin { key, a, b } => Affine::Lin { key, a: -a, b: -b },
            Affine::Opaque => Affine::Opaque,
        },
        Expr::Bin(op, l, r, _) => {
            let l = affine(l, params);
            let r = affine(r, params);
            match op {
                BinOp::Add => affine_add(l, r),
                BinOp::Sub => affine_add(l, neg_affine(r)),
                BinOp::Mul => affine_mul(l, r),
                BinOp::Div => affine_div(l, r),
                // Boolean operators have no numeric value; the type checker
                // reports these separately.
                _ => Affine::Opaque,
            }
        }
        Expr::Not(..) => Affine::Opaque,
    }
}

fn neg_affine(x: Affine) -> Affine {
    match x {
        Affine::Const(c) => Affine::Const(-c),
        Affine::Lin { key, a, b } => Affine::Lin { key, a: -a, b: -b },
        Affine::Opaque => Affine::Opaque,
    }
}

fn affine_add(l: Affine, r: Affine) -> Affine {
    match (l, r) {
        (Affine::Const(x), Affine::Const(y)) => Affine::Const(x + y),
        (Affine::Const(c), Affine::Lin { key, a, b })
        | (Affine::Lin { key, a, b }, Affine::Const(c)) => Affine::Lin { key, a, b: b + c },
        (
            Affine::Lin {
                key: k1,
                a: a1,
                b: b1,
            },
            Affine::Lin {
                key: k2,
                a: a2,
                b: b2,
            },
        ) if k1 == k2 => {
            let a = a1 + a2;
            if a == 0.0 {
                Affine::Const(b1 + b2)
            } else {
                Affine::Lin {
                    key: k1,
                    a,
                    b: b1 + b2,
                }
            }
        }
        _ => Affine::Opaque,
    }
}

fn affine_mul(l: Affine, r: Affine) -> Affine {
    match (l, r) {
        (Affine::Const(x), Affine::Const(y)) => Affine::Const(x * y),
        (Affine::Const(c), Affine::Lin { key, a, b })
        | (Affine::Lin { key, a, b }, Affine::Const(c)) => {
            if c == 0.0 {
                Affine::Const(0.0)
            } else {
                Affine::Lin {
                    key,
                    a: a * c,
                    b: b * c,
                }
            }
        }
        _ => Affine::Opaque,
    }
}

fn affine_div(l: Affine, r: Affine) -> Affine {
    match (l, r) {
        (Affine::Const(x), Affine::Const(y)) if y != 0.0 => Affine::Const(x / y),
        (Affine::Lin { key, a, b }, Affine::Const(c)) if c != 0.0 => Affine::Lin {
            key,
            a: a / c,
            b: b / c,
        },
        _ => Affine::Opaque,
    }
}

/// One comparison atom, solved against the domain.
enum Atom {
    /// Constant truth value.
    Const(bool),
    /// `metric(key) ∈ set` (already intersected with the key's domain).
    Range(String, IntervalSet),
    /// Cannot be solved in the single-metric affine fragment.
    Opaque,
}

/// Solves `l cmp r` by normalizing to `a*m + b cmp 0`.
fn solve_atom(cmp: BinOp, l: &Expr, r: &Expr, params: &HashMap<String, f64>) -> Atom {
    let d = affine_add(affine(l, params), neg_affine(affine(r, params)));
    match d {
        Affine::Opaque => Atom::Opaque,
        Affine::Const(c) => {
            if c.is_nan() {
                return Atom::Opaque;
            }
            let truth = match cmp {
                BinOp::Eq => c == 0.0,
                BinOp::Ne => c != 0.0,
                BinOp::Lt => c < 0.0,
                BinOp::Le => c <= 0.0,
                BinOp::Gt => c > 0.0,
                BinOp::Ge => c >= 0.0,
                _ => return Atom::Opaque,
            };
            Atom::Const(truth)
        }
        Affine::Lin { key, a, b } => {
            let t = -b / a;
            if t.is_nan() {
                return Atom::Opaque;
            }
            // a*m + b cmp 0  ⇔  m cmp' t, with the comparison flipped when
            // a is negative.
            let cmp = if a < 0.0 { flip_cmp(cmp) } else { cmp };
            let neg_inf = f64::NEG_INFINITY;
            let inf = f64::INFINITY;
            let raw = match cmp {
                BinOp::Lt => IntervalSet::from(Interval::new(neg_inf, false, t, false)),
                BinOp::Le => IntervalSet::from(Interval::new(neg_inf, false, t, true)),
                BinOp::Gt => IntervalSet::from(Interval::new(t, false, inf, false)),
                BinOp::Ge => IntervalSet::from(Interval::new(t, true, inf, false)),
                BinOp::Eq => IntervalSet::from(Interval::point(t)),
                BinOp::Ne => IntervalSet::from(Interval::point(t)).complement(),
                _ => return Atom::Opaque,
            };
            let set = raw.intersect(&domain(&key));
            Atom::Range(key, set)
        }
    }
}

/// Flips a comparison for a negated coefficient (`Lt` ↔ `Gt`, `Le` ↔ `Ge`).
fn flip_cmp(cmp: BinOp) -> BinOp {
    match cmp {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Negates a comparison under logical `!` (`Lt` ↔ `Ge`, `Eq` ↔ `Ne`).
fn negate_cmp(cmp: BinOp) -> BinOp {
    match cmp {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Regions: DNF of per-metric boxes
// ---------------------------------------------------------------------------

/// One conjunct of the DNF: a box of per-metric interval sets plus a count
/// of opaque atoms conjoined with it. The box is an over-approximation of
/// the conjunct's true region whenever `opaque > 0`.
#[derive(Clone)]
struct Conjunct {
    constraints: BTreeMap<String, IntervalSet>,
    opaque: usize,
}

impl Conjunct {
    fn top() -> Conjunct {
        Conjunct {
            constraints: BTreeMap::new(),
            opaque: 0,
        }
    }

    fn is_exact(&self) -> bool {
        self.opaque == 0
    }

    /// Intersects `set` into the box; returns `false` when the conjunct
    /// becomes provably empty. Constraints equal to the full domain carry
    /// no information and are not stored.
    fn constrain(&mut self, key: &str, set: &IntervalSet) -> bool {
        let merged = match self.constraints.get(key) {
            Some(prev) => prev.intersect(set),
            None => set.clone(),
        };
        if merged.is_empty() {
            return false;
        }
        if full_for(key, &merged) {
            self.constraints.remove(key);
        } else {
            self.constraints.insert(key.to_owned(), merged);
        }
        true
    }

    /// The box's set for `key`, defaulting to the key's whole domain.
    fn get(&self, key: &str) -> IntervalSet {
        self.constraints
            .get(key)
            .cloned()
            .unwrap_or_else(|| domain(key))
    }
}

/// The abstract region of a condition: a union of [`Conjunct`] boxes.
/// `conjuncts.is_empty() && !capped` means the condition is provably
/// unsatisfiable.
struct Region {
    conjuncts: Vec<Conjunct>,
    /// DNF blow-up: the region degraded to a single opaque ⊤ conjunct.
    capped: bool,
}

impl Region {
    fn bottom() -> Region {
        Region {
            conjuncts: Vec::new(),
            capped: false,
        }
    }

    fn top_exact() -> Region {
        Region {
            conjuncts: vec![Conjunct::top()],
            capped: false,
        }
    }

    fn top_opaque(capped: bool) -> Region {
        Region {
            conjuncts: vec![Conjunct {
                constraints: BTreeMap::new(),
                opaque: 1,
            }],
            capped,
        }
    }

    fn from_atom(atom: Atom) -> Region {
        match atom {
            Atom::Const(true) => Region::top_exact(),
            Atom::Const(false) => Region::bottom(),
            Atom::Opaque => Region::top_opaque(false),
            Atom::Range(key, set) => {
                let mut c = Conjunct::top();
                if c.constrain(&key, &set) {
                    Region {
                        conjuncts: vec![c],
                        capped: false,
                    }
                } else {
                    Region::bottom()
                }
            }
        }
    }

    /// Provably unsatisfiable (no over-approximation involved: each
    /// disjunct's interval part is empty, which kills the disjunct
    /// regardless of opaque atoms conjoined with it).
    fn is_unsat(&self) -> bool {
        self.conjuncts.is_empty() && !self.capped
    }

    /// Provably a tautology. Exact conjuncts only; decides the whole-box
    /// form (`⊤`) directly and the single-variable fragment by union
    /// (`x < 5 || x >= 5`).
    fn is_tautology(&self) -> bool {
        if self.capped {
            return false;
        }
        if self
            .conjuncts
            .iter()
            .any(|c| c.is_exact() && c.constraints.is_empty())
        {
            return true;
        }
        // Single-variable union: all conjuncts exact and over one metric.
        if !self.conjuncts.iter().all(|c| c.is_exact()) {
            return false;
        }
        let keys: BTreeSet<&str> = self
            .conjuncts
            .iter()
            .flat_map(|c| c.constraints.keys().map(|k| k.as_str()))
            .collect();
        if keys.len() != 1 {
            return false;
        }
        let key = keys.into_iter().next().unwrap();
        let mut union = IntervalSet::empty();
        for c in &self.conjuncts {
            union = union.union(&c.get(key));
        }
        full_for(key, &union)
    }

    fn and(self, other: Region) -> Region {
        if self.capped || other.capped {
            return Region::top_opaque(true);
        }
        if self.conjuncts.len() * other.conjuncts.len() > MAX_CONJUNCTS {
            return Region::top_opaque(true);
        }
        let mut out = Vec::new();
        for a in &self.conjuncts {
            'pairs: for b in &other.conjuncts {
                let mut merged = a.clone();
                merged.opaque += b.opaque;
                for (k, set) in &b.constraints {
                    if !merged.constrain(k, set) {
                        continue 'pairs;
                    }
                }
                out.push(merged);
            }
        }
        Region {
            conjuncts: out,
            capped: false,
        }
    }

    fn or(self, other: Region) -> Region {
        if self.capped || other.capped {
            return Region::top_opaque(true);
        }
        let mut out = self.conjuncts;
        out.extend(other.conjuncts);
        if out.len() > MAX_CONJUNCTS {
            return Region::top_opaque(true);
        }
        Region {
            conjuncts: out,
            capped: false,
        }
    }
}

/// Builds the abstract region of `expr` (negation pushed down to atoms).
fn build_region(expr: &Expr, params: &HashMap<String, f64>, neg: bool) -> Region {
    match expr {
        Expr::Not(inner, _) => build_region(inner, params, !neg),
        Expr::Bin(op @ (BinOp::And | BinOp::Or), a, b, _) => {
            let ra = build_region(a, params, neg);
            let rb = build_region(b, params, neg);
            let conjunction = matches!(op, BinOp::And) != neg;
            if conjunction {
                ra.and(rb)
            } else {
                ra.or(rb)
            }
        }
        Expr::Bin(op, a, b, _) if op.is_boolean() => {
            let op = if neg { negate_cmp(*op) } else { *op };
            Region::from_atom(solve_atom(op, a, b, params))
        }
        Expr::Num(n, _) => {
            if (*n != 0.0) != neg {
                Region::top_exact()
            } else {
                Region::bottom()
            }
        }
        // Ill-typed boolean position; the type checker reports it.
        _ => Region::top_opaque(false),
    }
}

// ---------------------------------------------------------------------------
// The analysis pass
// ---------------------------------------------------------------------------

/// Per-rule analysis state.
struct RuleInfo {
    region: Region,
    matched: Vec<&'static str>,
    /// Dead pattern, type error, undefined params, or unsat: excluded from
    /// shadowing in both directions.
    excluded: bool,
}

/// Result of [`analyze`]: the full list of findings plus severity
/// accounting and renderers.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in source order (ruleset-wide findings last).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Number of `Error` findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warn` findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Number of `Info` findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    /// The most severe finding, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Whether the ruleset produced no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders every finding with carets plus a one-line summary.
    pub fn render(&self, src: &str) -> String {
        if self.is_clean() {
            return "ruleset OK: no findings".to_owned();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(src));
            out.push_str("\n\n");
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info(s)",
            self.errors(),
            self.warnings(),
            self.infos()
        ));
        out
    }

    /// Machine-readable JSON:
    /// `{"findings":[{severity,code,message,line,column,span,notes}],…}`.
    pub fn to_json(&self, src: &str) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (line, col) = line_col(src, d.span.start);
            out.push_str("{\"severity\":");
            json::write_str(&mut out, d.severity.name());
            out.push_str(",\"code\":");
            json::write_str(&mut out, d.code);
            out.push_str(",\"message\":");
            json::write_str(&mut out, &d.message);
            out.push_str(&format!(
                ",\"line\":{line},\"column\":{col},\"span\":[{},{}],\"notes\":[",
                d.span.start, d.span.end
            ));
            for (j, n) in d.notes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let (nl, nc) = line_col(src, n.span.start);
                out.push_str("{\"message\":");
                json::write_str(&mut out, &n.message);
                out.push_str(&format!(
                    ",\"line\":{nl},\"column\":{nc},\"span\":[{},{}]}}",
                    n.span.start, n.span.end
                ));
            }
            out.push_str("]}");
        }
        out.push_str(&format!(
            "],\"errors\":{},\"warnings\":{},\"infos\":{}}}",
            self.errors(),
            self.warnings(),
            self.infos()
        ));
        out
    }
}

/// Collects parameter references in source order (first span per name).
fn collect_params(expr: &Expr, out: &mut Vec<(String, Span)>) {
    match expr {
        Expr::Param(name, span) => {
            if !out.iter().any(|(n, _)| n == name) {
                out.push((name.clone(), *span));
            }
        }
        Expr::Not(e, _) | Expr::Neg(e, _) => collect_params(e, out),
        Expr::Bin(_, a, b, _) => {
            collect_params(a, out);
            collect_params(b, out);
        }
        Expr::Num(..) | Expr::Metric(..) => {}
    }
}

/// The collection kinds a type pattern can match.
fn pattern_kinds(pat: &TypePat) -> Vec<Kind> {
    match pat {
        TypePat::Any => Kind::ALL.to_vec(),
        TypePat::List => vec![Kind::List],
        TypePat::Set => vec![Kind::Set],
        TypePat::Map => vec![Kind::Map],
        TypePat::Named(n) => kinds::kind_of_requested(n).into_iter().collect(),
    }
}

/// Analyzes a whole parsed ruleset against bound parameters. `src` is the
/// rule source the spans index into.
pub fn analyze(rules: &[Rule], params: &HashMap<String, f64>, src: &str) -> LintReport {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut used_params: BTreeSet<String> = BTreeSet::new();
    let mut infos: Vec<RuleInfo> = Vec::with_capacity(rules.len());

    // --- per-rule checks: params, types, targets, patterns, conditions ---
    for rule in rules {
        let mut rule_params = Vec::new();
        collect_params(&rule.cond, &mut rule_params);
        let mut has_undefined = false;
        for (name, span) in &rule_params {
            used_params.insert(name.clone());
            if !params.contains_key(name) {
                has_undefined = true;
                diags.push(Diagnostic::new(
                    Severity::Error,
                    "undefined-param",
                    format!("parameter `{name}` is not bound (bind it with set_param)"),
                    *span,
                ));
            }
        }

        // Type-check with every referenced parameter bound, so only genuine
        // type errors surface here (undefined params are reported above).
        let mut augmented = params.clone();
        for (name, _) in &rule_params {
            augmented.entry(name.clone()).or_insert(1.0);
        }
        let type_error = match check::infer(&rule.cond, &augmented, src) {
            Ok(check::Ty::Bool) => false,
            Ok(check::Ty::Num) => {
                diags.push(Diagnostic::new(
                    Severity::Error,
                    "type-error",
                    "rule condition must be a boolean expression",
                    rule.cond.span(),
                ));
                true
            }
            Err(e) => {
                diags.push(Diagnostic::new(
                    Severity::Error,
                    "type-error",
                    e.message,
                    e.span,
                ));
                true
            }
        };

        // Target soundness against the shared kind registry.
        if let Action::Replace { impl_name, .. } = &rule.action {
            match kinds::target_kind(impl_name) {
                None => {
                    diags.push(Diagnostic::new(
                        Severity::Error,
                        "unknown-target",
                        format!("unknown target implementation `{impl_name}`"),
                        rule.span,
                    ));
                }
                Some(None) => {} // kind-generic (Lazy): always compatible
                Some(Some(target_kind)) => {
                    let src_kinds = pattern_kinds(&rule.src_type);
                    if !src_kinds.is_empty() {
                        let compatible: Vec<Kind> = src_kinds
                            .iter()
                            .copied()
                            .filter(|k| k.compatible_target(target_kind))
                            .collect();
                        if compatible.is_empty() {
                            diags.push(Diagnostic::new(
                                Severity::Error,
                                "kind-mismatch",
                                format!(
                                    "target `{impl_name}` is {target_kind:?}-kinded but the \
                                     pattern `{}` only matches incompatible contexts",
                                    rule.src_type
                                ),
                                rule.span,
                            ));
                        } else if compatible.len() < src_kinds.len() {
                            diags.push(Diagnostic::new(
                                Severity::Warn,
                                "kind-mismatch",
                                format!(
                                    "target `{impl_name}` is {target_kind:?}-kinded but the \
                                     pattern `{}` also matches incompatible contexts",
                                    rule.src_type
                                ),
                                rule.span,
                            ));
                        }
                    }
                }
            }
        }

        // Dead pattern: matches no requestable type.
        let matched = rule.src_type.matched_types();
        let dead = matched.is_empty();
        if dead {
            diags.push(Diagnostic::new(
                Severity::Warn,
                "dead-pattern",
                format!(
                    "pattern `{}` matches no requestable collection type; the rule can never fire",
                    rule.src_type
                ),
                rule.span,
            ));
        }

        // Condition satisfiability (skip when the condition is ill-typed —
        // its region would be meaningless).
        let region = if type_error {
            Region::top_opaque(false)
        } else {
            build_region(&rule.cond, params, false)
        };
        let unsat = !type_error && region.is_unsat();
        if unsat {
            let subst = rule_params
                .iter()
                .filter_map(|(n, _)| params.get(n).map(|v| format!("{n} = {v}")))
                .collect::<Vec<_>>()
                .join(", ");
            let msg = if subst.is_empty() {
                "condition is unsatisfiable: no metric values can ever match".to_owned()
            } else {
                format!("condition is unsatisfiable with the bound parameters ({subst})")
            };
            diags.push(Diagnostic::new(
                Severity::Error,
                "unsatisfiable-condition",
                msg,
                rule.cond.span(),
            ));
        }

        infos.push(RuleInfo {
            region,
            matched,
            excluded: dead || type_error || unsat || has_undefined,
        });
    }

    // --- tautologies (need the whole list to pick the severity) ---
    for (i, (rule, info)) in rules.iter().zip(&infos).enumerate() {
        if info.excluded || !info.region.is_tautology() {
            continue;
        }
        let overlaps_later = rules[i + 1..]
            .iter()
            .zip(&infos[i + 1..])
            .any(|(_, later)| {
                !later.excluded && later.matched.iter().any(|t| info.matched.contains(t))
            });
        if overlaps_later {
            diags.push(Diagnostic::new(
                Severity::Warn,
                "tautological-condition",
                "condition is always true; later rules for the same types can never fire",
                rule.cond.span(),
            ));
        } else {
            diags.push(Diagnostic::new(
                Severity::Info,
                "tautological-condition",
                "condition is always true",
                rule.cond.span(),
            ));
        }
    }

    // --- shadowing ---
    for i in 0..rules.len() {
        if infos[i].excluded {
            continue;
        }
        if let Some(d) = shadow_check(rules, &infos, i) {
            diags.push(d);
        }
    }

    // --- exact duplicates ---
    for j in 1..rules.len() {
        if infos[j].excluded {
            continue;
        }
        for i in 0..j {
            if infos[i].excluded {
                continue;
            }
            if rules[i].action == rules[j].action
                && same_type_set(&infos[i].matched, &infos[j].matched)
                && region_identical(&infos[i].region, &infos[j].region)
            {
                diags.push(
                    Diagnostic::new(
                        Severity::Info,
                        "duplicate-rule",
                        "rule is an exact duplicate of an earlier rule: same matched \
                         types, semantically equal condition, identical action",
                        rules[j].span,
                    )
                    .with_note("first occurrence is here", rules[i].span),
                );
                break;
            }
        }
    }

    // Findings so far read top-down in rule order.
    diags.sort_by_key(|d| d.span.start);

    // --- unused parameters (ruleset-wide, reported last) ---
    // hashmap-iter-ok: collected and sorted before any report is emitted.
    let mut names: Vec<&String> = params.keys().collect();
    names.sort();
    for name in names {
        if !used_params.contains(name.as_str()) {
            diags.push(Diagnostic::new(
                Severity::Info,
                "unused-param",
                format!("parameter `{name}` is bound but never used by any rule"),
                Span::default(),
            ));
        }
    }

    LintReport { diagnostics: diags }
}

/// Parses and analyzes rule source in one step.
///
/// # Errors
///
/// Returns the parse error when `src` does not parse; analysis findings are
/// in the returned report, not errors.
pub fn analyze_source(src: &str, params: &HashMap<String, f64>) -> Result<LintReport, RuleError> {
    let rules = crate::parser::parse_rules(src)?;
    Ok(analyze(&rules, params, src))
}

/// Decides whether rule `i` is (possibly) shadowed by higher-priority
/// rules, returning the diagnostic if so.
/// Same set of matched types, ignoring order and multiplicity.
fn same_type_set(a: &[&'static str], b: &[&'static str]) -> bool {
    let sa: BTreeSet<&str> = a.iter().copied().collect();
    let sb: BTreeSet<&str> = b.iter().copied().collect();
    sa == sb
}

/// Semantic condition equality, decided only for fully exact regions: the
/// conjunct lists must match as multisets of constraint boxes. Opaque or
/// capped regions never compare equal — exact-only by design, since a
/// missed duplicate is harmless while a false one is noise.
fn region_identical(a: &Region, b: &Region) -> bool {
    if a.capped || b.capped || a.conjuncts.len() != b.conjuncts.len() {
        return false;
    }
    let exact =
        a.conjuncts.iter().all(Conjunct::is_exact) && b.conjuncts.iter().all(Conjunct::is_exact);
    if !exact {
        return false;
    }
    let mut used = vec![false; b.conjuncts.len()];
    'boxes: for ca in &a.conjuncts {
        for (k, cb) in b.conjuncts.iter().enumerate() {
            if !used[k] && ca.constraints == cb.constraints {
                used[k] = true;
                continue 'boxes;
            }
        }
        return false;
    }
    true
}

fn shadow_check(rules: &[Rule], infos: &[RuleInfo], i: usize) -> Option<Diagnostic> {
    let info = &infos[i];

    // Definite: for every type the rule matches, every conjunct box of its
    // region must be covered by exact higher conjuncts. Covering the
    // over-approximated box also covers the true region, so this is sound
    // even when rule i itself has opaque atoms.
    let mut used: BTreeSet<usize> = BTreeSet::new();
    let definite = info.matched.iter().all(|t| {
        let exacts: Vec<(usize, &Conjunct)> = (0..i)
            .filter(|&h| !infos[h].excluded && rules[h].src_type.matches(t))
            .flat_map(|h| {
                infos[h]
                    .region
                    .conjuncts
                    .iter()
                    .filter(|c| c.is_exact())
                    .map(move |c| (h, c))
            })
            .collect();
        info.region
            .conjuncts
            .iter()
            .all(|b| box_covered(b, &exacts, &mut used))
    });
    if definite && !info.region.conjuncts.is_empty() {
        let mut d = Diagnostic::new(
            Severity::Warn,
            "shadowed-rule",
            "rule can never fire: every context it matches is claimed by earlier rules",
            rules[i].span,
        );
        for h in used {
            d = d.with_note("covered by this earlier rule", rules[h].span);
        }
        return Some(d);
    }

    // Possibly: a single higher rule whose *over-approximated* region
    // covers this rule's region. Opaque atoms on the higher side mean it
    // may actually match less, hence only an Info. Gated to higher rules
    // where every conjunct carries at least one interval constraint, so a
    // fully-opaque condition (e.g. `maxSize > initialCapacity`) never
    // triggers it.
    for h in 0..i {
        if infos[h].excluded {
            continue;
        }
        if infos[h].region.capped
            || infos[h]
                .region
                .conjuncts
                .iter()
                .any(|c| c.constraints.is_empty())
        {
            continue;
        }
        if !info.matched.iter().all(|t| rules[h].src_type.matches(t)) {
            continue;
        }
        let over: Vec<(usize, &Conjunct)> =
            infos[h].region.conjuncts.iter().map(|c| (h, c)).collect();
        let mut _used = BTreeSet::new();
        let covered = !info.region.conjuncts.is_empty()
            && info
                .region
                .conjuncts
                .iter()
                .all(|b| box_covered(b, &over, &mut _used));
        if covered {
            // Exact coverage by a single rule would have been caught above;
            // reaching here means the higher side is over-approximated.
            return Some(
                Diagnostic::new(
                    Severity::Info,
                    "possibly-shadowed",
                    "rule may never fire: an earlier rule's condition appears to cover it \
                     (conservative approximation)",
                    rules[i].span,
                )
                .with_note("possibly covered by this earlier rule", rules[h].span),
            );
        }
    }
    None
}

/// Whether box `b` is covered by the union of higher conjuncts `hcs`.
/// Exact for box-in-box containment and for unions over a single metric;
/// contributing rule indices are recorded into `used`.
fn box_covered(b: &Conjunct, hcs: &[(usize, &Conjunct)], used: &mut BTreeSet<usize>) -> bool {
    // Box-in-box: one higher conjunct contains the whole box (a higher
    // conjunct with no constraints is ⊤ and covers everything).
    for (idx, hc) in hcs {
        if hc
            .constraints
            .iter()
            .all(|(k, hset)| hset.covers(&b.get(k)))
        {
            used.insert(*idx);
            return true;
        }
    }
    // Single-metric union: conjuncts constraining exactly one metric `m`
    // union to a superset of the box's `m` range. Sound because each such
    // conjunct is unconditional in every other metric.
    for m in b.constraints.keys() {
        let mut union = IntervalSet::empty();
        let mut contributors = Vec::new();
        for (idx, hc) in hcs {
            if hc.constraints.len() == 1 {
                if let Some(hset) = hc.constraints.get(m) {
                    union = union.union(hset);
                    contributors.push(*idx);
                }
            }
        }
        if union.covers(&b.get(m)) {
            used.extend(contributors);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::{BUILTIN_RULES, DEFAULT_PARAMS};

    fn params(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn lint(src: &str, pairs: &[(&str, f64)]) -> LintReport {
        analyze_source(src, &params(pairs)).expect("parses")
    }

    #[test]
    fn builtin_rules_lint_clean() {
        let report = lint(BUILTIN_RULES, DEFAULT_PARAMS);
        assert!(
            report.is_clean(),
            "builtin ruleset must produce zero findings:\n{}",
            report.render(BUILTIN_RULES)
        );
    }

    #[test]
    fn unsatisfiable_after_param_substitution() {
        let src = "HashMap : maxSize > SMALL && maxSize < TINY -> ArrayMap";
        let report = lint(src, &[("SMALL", 16.0), ("TINY", 4.0)]);
        assert_eq!(report.errors(), 1, "{}", report.render(src));
        let d = &report.diagnostics[0];
        assert_eq!(d.code, "unsatisfiable-condition");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("SMALL = 16"), "{}", d.message);
        // Span points at the condition, not the whole rule.
        let (line, col) = line_col(src, d.span.start);
        assert_eq!((line, col), (1, 11));
    }

    #[test]
    fn negative_bound_is_unsatisfiable() {
        let src = "HashMap : maxSize < 0 -> ArrayMap";
        let report = lint(src, &[]);
        assert_eq!(report.errors(), 1);
        assert_eq!(report.diagnostics[0].code, "unsatisfiable-condition");
    }

    #[test]
    fn constant_false_is_unsatisfiable() {
        let src = "HashMap : 5 == 3 -> ArrayMap";
        let report = lint(src, &[]);
        assert_eq!(report.diagnostics[0].code, "unsatisfiable-condition");
    }

    #[test]
    fn negation_and_instances_domain() {
        // instances >= 1 on every examined context, so `!(instances > 0)`
        // can never hold.
        let src = "HashMap : !(instances > 0) -> ArrayMap";
        let report = lint(src, &[]);
        assert_eq!(report.diagnostics[0].code, "unsatisfiable-condition");
        // ...and `instances > 0` alone is a tautology.
        let src2 = "HashMap : instances > 0 -> ArrayMap";
        let report2 = lint(src2, &[]);
        assert_eq!(report2.diagnostics[0].code, "tautological-condition");
        assert_eq!(report2.diagnostics[0].severity, Severity::Info);
    }

    #[test]
    fn duplicate_rule_is_flagged_as_info() {
        // Conditions are written differently but denote the same region;
        // actions and matched types are identical.
        let src = "HashMap : maxSize < 16 -> ArrayMap;\nHashMap : !(maxSize >= 16) -> ArrayMap";
        let report = lint(src, &[]);
        let dups: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "duplicate-rule")
            .collect();
        assert_eq!(dups.len(), 1, "{}", report.render(src));
        assert_eq!(dups[0].severity, Severity::Info);
        let (line, _) = line_col(src, dups[0].span.start);
        assert_eq!(line, 2, "primary span on the later copy");
        assert_eq!(dups[0].notes.len(), 1);
        let (nline, _) = line_col(src, dups[0].notes[0].span.start);
        assert_eq!(nline, 1, "note span on the first occurrence");
    }

    #[test]
    fn near_duplicates_are_not_flagged() {
        // Different action target.
        let src = "HashMap : maxSize < 16 -> ArrayMap;\nHashMap : maxSize < 16 -> LinkedMap";
        let report = lint(src, &[]);
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| d.code != "duplicate-rule"),
            "{}",
            report.render(src)
        );
        // Different condition region.
        let src = "HashMap : maxSize < 16 -> ArrayMap;\nHashMap : maxSize < 17 -> ArrayMap";
        let report = lint(src, &[]);
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| d.code != "duplicate-rule"),
            "{}",
            report.render(src)
        );
    }

    #[test]
    fn opaque_conditions_never_report_duplicates() {
        // `maxSize > initialCapacity` is a multi-metric atom the domain
        // treats as opaque: textually identical rules must still not be
        // called duplicates, because equality is undecided.
        let src = "HashMap : maxSize > initialCapacity -> ArrayMap;\n\
                   HashMap : maxSize > initialCapacity -> ArrayMap";
        let report = lint(src, &[]);
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| d.code != "duplicate-rule"),
            "{}",
            report.render(src)
        );
    }

    #[test]
    fn shadowed_rule_is_flagged_with_both_spans() {
        let src = "HashMap : maxSize < SMALL -> ArrayMap;\nHashMap : maxSize < 4 -> ArrayMap";
        let report = lint(src, &[("SMALL", 16.0)]);
        assert_eq!(report.warnings(), 1, "{}", report.render(src));
        let d = &report.diagnostics[0];
        assert_eq!(d.code, "shadowed-rule");
        assert_eq!(d.severity, Severity::Warn);
        let (line, _) = line_col(src, d.span.start);
        assert_eq!(line, 2, "primary span on the shadowed rule");
        assert_eq!(d.notes.len(), 1);
        let (nline, _) = line_col(src, d.notes[0].span.start);
        assert_eq!(nline, 1, "note span on the shadowing rule");
    }

    #[test]
    fn union_of_rules_shadows_exactly() {
        let src = "Collection : maxSize < 16 -> Lazy;\n\
                   Collection : maxSize >= 16 -> Lazy;\n\
                   HashMap : maxSize > 10 -> ArrayMap";
        let report = lint(src, &[]);
        let shadowed: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "shadowed-rule")
            .collect();
        assert_eq!(shadowed.len(), 1, "{}", report.render(src));
        assert_eq!(shadowed[0].notes.len(), 2, "both covering rules noted");
        // With the point 16 left uncovered (the third rule's range straddles
        // it), the union no longer shadows.
        let gap = "Collection : maxSize < 16 -> Lazy;\n\
                   Collection : maxSize > 16 -> Lazy;\n\
                   HashMap : maxSize > 10 -> ArrayMap";
        assert!(lint(gap, &[]).is_clean(), "point 16 is not covered");
    }

    #[test]
    fn shadowing_respects_type_patterns() {
        // The earlier rule only matches HashSet; the HashMap rule is live.
        let src = "HashSet : maxSize < 16 -> ArraySet;\nHashMap : maxSize < 4 -> ArrayMap";
        assert!(lint(src, &[]).is_clean());
    }

    #[test]
    fn tautology_over_later_rules_warns() {
        let src = "HashMap : maxSize >= 0 -> ArrayMap;\nHashMap : maxSize < 4 -> ArrayMap";
        let report = lint(src, &[]);
        let taut = report
            .diagnostics
            .iter()
            .find(|d| d.code == "tautological-condition")
            .expect("tautology found");
        assert_eq!(taut.severity, Severity::Warn);
        // The ⊤ region also definitely shadows the second rule.
        assert!(report.diagnostics.iter().any(|d| d.code == "shadowed-rule"));
    }

    #[test]
    fn kind_mismatched_target_is_an_error() {
        let src = "LinkedList : #get(int) > 0 -> HashMap";
        let report = lint(src, &[]);
        assert_eq!(report.errors(), 1, "{}", report.render(src));
        let d = &report.diagnostics[0];
        assert_eq!(d.code, "kind-mismatch");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.start, 0);
        assert_eq!(d.span.end, src.len());
    }

    #[test]
    fn cross_kind_list_set_is_allowed() {
        // The paper's own set-like-ArrayList rule.
        let src = "ArrayList : #contains > 50 && maxSize > 32 -> LinkedHashSet";
        assert!(lint(src, &[]).is_clean());
    }

    #[test]
    fn collection_pattern_with_map_target_warns() {
        // Matches list/set contexts too, where a map target is wrong.
        let src = "Collection : maxSize < 4 -> ArrayMap";
        let report = lint(src, &[]);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, "kind-mismatch");
        assert_eq!(d.severity, Severity::Warn);
    }

    #[test]
    fn dead_pattern_and_unknown_target() {
        let report = lint("Vector : maxSize > 0 -> ArrayMap", &[]);
        assert!(report.diagnostics.iter().any(|d| d.code == "dead-pattern"));
        // Replacement-only types are not requestable either.
        let report2 = lint("ArrayMap : maxSize > 0 -> HashMap", &[]);
        assert!(report2.diagnostics.iter().any(|d| d.code == "dead-pattern"));
    }

    #[test]
    fn undefined_and_unused_params() {
        let src = "HashMap : maxSize < NOPE -> ArrayMap";
        let report = lint(src, &[("SPARE", 1.0)]);
        let undef = report
            .diagnostics
            .iter()
            .find(|d| d.code == "undefined-param")
            .expect("undefined param flagged");
        assert_eq!(undef.severity, Severity::Error);
        assert!(undef.message.contains("NOPE"));
        let unused = report
            .diagnostics
            .iter()
            .find(|d| d.code == "unused-param")
            .expect("unused param flagged");
        assert_eq!(unused.severity, Severity::Info);
        assert!(unused.message.contains("SPARE"));
    }

    #[test]
    fn opaque_conditions_are_never_unsat_or_shadowing() {
        // Multi-metric atoms are opaque: no claims made.
        let src = "Collection : maxSize > initialCapacity -> SetInitialCapacity(maxSize);\n\
                   HashMap : maxSize < 4 -> ArrayMap";
        assert!(lint(src, &[]).is_clean());
    }

    #[test]
    fn possibly_shadowed_is_info_only() {
        // The earlier rule over-approximates to maxSize < 16 (its second
        // conjunct is opaque), which covers maxSize < 8 — but only maybe.
        let src = "HashMap : maxSize < 16 && maxSize * 2 < initialCapacity -> ArrayMap;\n\
                   HashMap : maxSize < 8 && #get(Object) > 2 -> ArrayMap";
        let report = lint(src, &[]);
        assert_eq!(
            report.errors() + report.warnings(),
            0,
            "{}",
            report.render(src)
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "possibly-shadowed")
            .expect("info emitted");
        assert_eq!(d.severity, Severity::Info);
    }

    #[test]
    fn arithmetic_is_normalized() {
        // 2*maxSize + 4 <= 10  ⇔  maxSize <= 3; combined with > 3 → unsat.
        let src = "HashMap : 2 * maxSize + 4 <= 10 && maxSize > 3 -> ArrayMap";
        let report = lint(src, &[]);
        assert_eq!(report.diagnostics[0].code, "unsatisfiable-condition");
        // Negative coefficient flips the comparison: 10 - maxSize < 2 ⇔
        // maxSize > 8; with maxSize < 9 the window (8, 9) is satisfiable.
        let ok = "HashMap : 10 - maxSize < 2 && maxSize < 9 -> ArrayMap";
        assert!(lint(ok, &[]).is_clean());
    }

    #[test]
    fn division_by_zero_param_stays_opaque() {
        let src = "HashMap : maxSize / Z > 1 -> ArrayMap";
        // Z = 0 would make the atom NaN/∞-valued; the analyzer must make no
        // satisfiability claim rather than a wrong one.
        assert!(lint(src, &[("Z", 0.0)]).is_clean());
    }

    #[test]
    fn report_renders_and_serializes() {
        let src = "HashMap : maxSize < 0 -> ArrayMap";
        let report = lint(src, &[]);
        let text = report.render(src);
        assert!(text.contains("error[unsatisfiable-condition]"), "{text}");
        assert!(text.contains("1 error(s)"), "{text}");
        let js = report.to_json(src);
        let v = json::parse(&js).expect("valid json");
        let obj = v.as_obj().expect("object");
        assert!(obj.contains_key("findings"));
        assert_eq!(obj["errors"].as_u64(), Some(1));
        assert!(js.contains("\"severity\":\"error\""), "{js}");
        assert!(js.contains("\"code\":\"unsatisfiable-condition\""), "{js}");
        // Clean report renders the OK line and empty findings.
        let clean = lint("HashMap : maxSize < 4 -> ArrayMap", &[]);
        assert_eq!(clean.render(""), "ruleset OK: no findings");
        assert!(clean.to_json("").starts_with("{\"findings\":[]"));
    }
}
